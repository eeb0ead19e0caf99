"""Snapshot-safety rules (SIM401–SIM404) over the project call graph.

PR 9 made checkpoint/restore load-bearing (resumable sweeps,
crash-resilient supervision, time-travel failure replay — DESIGN §11),
and its correctness rests on conventions the type system cannot see:
schedule sites must be closure-free, id streams must route through
:class:`repro.sim.serial.SerialCounter`, and no simulation state may
live outside the pickled ``{sim, world, counters}`` root set.  This
pass turns those conventions into machine-checked invariants, the same
way SIM3xx proved the DES shardable before sharding lands:

SIM401
    Every callback the event heap can hold must survive the checkpoint
    pickler.  ``_CheckpointPickler`` re-binds bound methods by
    ``__func__`` identity through the owner's MRO
    (:mod:`repro.sim.checkpoint`), so a *resolved* method reference is
    fine — but a lambda, a nested def (closure over locals), a
    ``types.MethodType``/``__get__`` construction (no MRO identity
    path), a factory returning a closure, or a ``functools.partial``
    whose captured arguments reach an unpicklable object (open file,
    generator, thread, lock/``Condition``) raises at ``save()`` — or
    worse, at restore.  Flagged at the ``schedule*`` / ``heappush`` /
    ``register_batch`` site that would put it on the heap.
SIM402
    Snapshot completeness: the checkpoint payload is exactly
    ``{sim, world, counters}``, so mutable state written from
    dispatch-reachable code that lives *outside* that root set —
    module-level globals, class attributes, mutable default-argument
    caches, raw ``itertools.count`` streams not registered as a
    :class:`~repro.sim.serial.SerialCounter` — silently resets (or
    stays stale) on restore.  Built on the PR 8 escape records
    (:class:`repro.analysis.effects.GlobalWrite`).
SIM403
    Manifest & reducer drift: the set of classes whose bound methods
    actually reach the event heap (owners of dispatch-seeded
    callbacks) is *computed* and diffed against the *declared*
    checkpoint manifest (:data:`~repro.analysis.manifest.COMPONENT_CLASSES`
    / :data:`~repro.analysis.manifest.SLOTS_MANIFEST` /
    :data:`~repro.analysis.manifest.HEAP_EXTRA_CLASSES`).  A census
    class (or ``Simulator`` or a subclass) defining
    ``__getstate__``/``__reduce__`` outside
    :data:`~repro.analysis.manifest.REDUCER_SANCTIONED` is drift: the
    checkpoint pickler honours the hook, so the restored heap could
    bind methods to objects the world no longer references.
SIM404
    Restore-order typestate over the checkpoint/supervise lifecycle:
    ``load`` lexically before ``save`` in the same driver body (clobber
    of the checkpoint being read), manual ``Simulator(...)``
    construction beside :func:`~repro.sim.checkpoint.resume_or_start`
    in the same path (the manual instance never adopts restored
    state — construct inside the ``build`` factory), direct
    ``snapshot_counters``/``restore_counters`` calls outside the
    checkpoint machinery, ``checkpoint.save`` from inside a
    dispatch-reachable callback (the in-flight event is not on the
    heap), and ``failure.json`` recipes consumed outside the replay
    entry points.

As everywhere in :mod:`repro.analysis`, only known-known conflicts
fire: unresolvable callbacks, opaque types, and unattributed modules
degrade to silence, not noise.  Findings are cached beside
``effects.json`` (``snapshots.json``), keyed by the same whole-project
content digest.
"""

from __future__ import annotations

import ast
import json
from pathlib import Path

from repro.analysis.callgraph import (
    CallGraph,
    ClassInfo,
    FunctionInfo,
    ProjectIndex,
)
from repro.analysis.effects import EffectMap, project_digest
from repro.analysis.manifest import (
    CHECKPOINT_PACKAGES,
    COMPONENT_CLASSES,
    HEAP_EXTRA_CLASSES,
    REDUCER_SANCTIONED,
    SLOTS_MANIFEST,
    SNAPSHOT_EXEMPT_MODULES,
)
from repro.analysis.shards import _Emitters
from repro.analysis.simlint import Violation

__all__ = [
    "SNAPSHOT_RULES",
    "check_snapshots",
    "load_or_compute_snapshots",
    "snapshots_cache_path",
]

SNAPSHOT_RULES: dict[str, str] = {
    "SIM401": (
        "schedule-site callbacks must survive the checkpoint pickler "
        "(no lambdas, closures, or unpicklable captures)"
    ),
    "SIM402": (
        "no dispatch-reachable writes to state outside the "
        "{sim, world, counters} checkpoint root set"
    ),
    "SIM403": (
        "heap-reachable classes must be declared in the checkpoint "
        "manifest and stay reducer-clean"
    ),
    "SIM404": (
        "checkpoint lifecycle order: no load-before-save, no manual "
        "Simulator beside resume_or_start, recipes only in replay paths"
    ),
}

#: Version 1: initial SIM401–SIM404 findings cache.
_SNAPSHOTS_VERSION = 1

#: Constructors whose result can never ride in a checkpoint pickle.
_UNPICKLABLE_CTORS: dict[str, str] = {
    "open": "an open file",
    "Thread": "a thread",
    "Lock": "a lock",
    "RLock": "a lock",
    "Condition": "a Condition",
    "Event": "a threading event",
    "Semaphore": "a semaphore",
    "BoundedSemaphore": "a semaphore",
    "Popen": "a subprocess handle",
    "socket": "a socket",
}

_REDUCER_HOOKS = (
    "__getstate__",
    "__setstate__",
    "__reduce__",
    "__reduce_ex__",
    "__getnewargs__",
)

_SIMULATOR_QUALNAME = "repro.sim.engine.Simulator"
_RESUME_API = frozenset({"repro.sim.checkpoint.resume_or_start"})
_COUNTER_API = frozenset(
    {"repro.sim.serial.snapshot_counters", "repro.sim.serial.restore_counters"}
)
_SAVE_API = frozenset({"repro.sim.checkpoint.save"})
_LOAD_API = frozenset({"repro.sim.checkpoint.load"})
#: Call heads that consume a path — a ``"failure.json"`` constant in
#: their argument tree is a recipe being read or built (a help string
#: mentioning the name is not).
_PATH_CONSUMERS = frozenset(
    {"open", "load", "loads", "read_text", "write_text", "Path", "joinpath"}
)


def _scoped(module: str) -> bool:
    if module in SNAPSHOT_EXEMPT_MODULES:
        return False
    return any(
        module == p or module.startswith(p + ".") for p in CHECKPOINT_PACKAGES
    )


def _anchor(line: int, col: int) -> ast.expr:
    node = ast.Expr(value=ast.Constant(value=None))
    node.lineno = line
    node.col_offset = col
    node.end_lineno = line
    return node


def _dotted_of(func: ast.expr) -> str | None:
    parts: list[str] = []
    while isinstance(func, ast.Attribute):
        parts.append(func.attr)
        func = func.value
    if isinstance(func, ast.Name):
        parts.append(func.id)
        return ".".join(reversed(parts))
    return None


def _api_target(
    index: ProjectIndex, module: str, node: ast.Call
) -> str | None:
    """Call-head dotted name with its first segment import-resolved.

    ``ck.load(...)`` with ``import repro.sim.checkpoint as ck`` ->
    ``repro.sim.checkpoint.load``; an unimported head resolves to
    itself, so project-external names stay recognisable by suffix.
    """
    dotted = _dotted_of(node.func)
    if dotted is None:
        return None
    head, _, rest = dotted.partition(".")
    mod = index.modules.get(module)
    if mod is not None:
        head = mod.imports.get(head, head)
    return f"{head}.{rest}" if rest else head


def _nested_def_names(fn: FunctionInfo) -> set[str]:
    names: set[str] = set()
    for node in ast.walk(fn.node):
        if (
            isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
            and node is not fn.node
        ):
            names.add(node.name)
    return names


# ---------------------------------------------------------------------------
# SIM401 — unpicklable heap reachability
# ---------------------------------------------------------------------------

def _local_unpicklables(index: ProjectIndex, fn: FunctionInfo) -> dict[str, str]:
    """Local names bound to provably unpicklable objects, in statement
    order (one Name-to-Name hop of propagation)."""
    found: dict[str, str] = {}
    for node in ast.walk(fn.node):
        if not isinstance(node, ast.Assign) or len(node.targets) != 1:
            continue
        target = node.targets[0]
        if not isinstance(target, ast.Name):
            continue
        desc = _unpicklable_expr(index, fn, node.value, found)
        if desc is not None:
            found[target.id] = desc
    return found


def _unpicklable_expr(
    index: ProjectIndex,
    fn: FunctionInfo,
    expr: ast.expr,
    local_map: dict[str, str],
    nested: set[str] | None = None,
) -> str | None:
    """Why ``expr`` cannot ride in a checkpoint pickle, or None."""
    if isinstance(expr, ast.Lambda):
        return "a lambda"
    if isinstance(expr, ast.GeneratorExp):
        return "a generator"
    if isinstance(expr, ast.Name):
        if expr.id in local_map:
            return local_map[expr.id]
        if nested is not None and expr.id in nested:
            return "a nested function (closure)"
        return None
    if isinstance(expr, ast.Call):
        dotted = _dotted_of(expr.func)
        tail = dotted.rsplit(".", 1)[-1] if dotted else None
        if tail in _UNPICKLABLE_CTORS:
            return _UNPICKLABLE_CTORS[tail]
    return None


def _returns_closure(fn: FunctionInfo) -> bool:
    """The function's return value is a lambda or a nested def."""
    nested = _nested_def_names(fn)
    for node in ast.walk(fn.node):
        if isinstance(node, ast.Return) and node.value is not None:
            if isinstance(node.value, ast.Lambda):
                return True
            if isinstance(node.value, ast.Name) and node.value.id in nested:
                return True
    return False


def _class_attr_lambda(cls: ClassInfo | None, attr: str) -> bool:
    """Some method stores ``self.<attr> = lambda ...``."""
    if cls is None:
        return False
    for method in cls.methods.values():
        for node in ast.walk(method.node):
            if isinstance(node, ast.Assign) and isinstance(
                node.value, ast.Lambda
            ):
                for target in node.targets:
                    if (
                        isinstance(target, ast.Attribute)
                        and target.attr == attr
                        and isinstance(target.value, ast.Name)
                        and target.value.id == "self"
                    ):
                        return True
    return False


def _check_heap_picklability(
    index: ProjectIndex, graph: CallGraph, emitters: _Emitters
) -> None:
    site_kinds = {
        "schedule": "schedule",
        "heappush": "inlined heappush",
        "register": "register_batch",
    }
    for site in [*graph.schedule_sites, *graph.register_sites]:
        caller = index.functions.get(site.caller)
        if caller is None or not _scoped(caller.module):
            continue
        if site.callback is None or site.target is not None:
            continue  # resolved method references re-bind by MRO identity
        emit = emitters.for_module(caller.module)
        if emit is None:
            continue
        where = site_kinds.get(site.kind, site.kind)
        reason = _callback_reason(index, caller, site.callback)
        if reason is None:
            continue
        emit(
            "SIM401",
            site.callback,
            f"{reason} at a {where} site cannot be checkpointed: the "
            "pickler re-binds only bound methods with a __func__-identity "
            "path through the owner's MRO; use a bound method of a "
            "component (repro.sim.checkpoint reducer rules)",
        )


def _callback_reason(
    index: ProjectIndex, caller: FunctionInfo, cb: ast.expr
) -> str | None:
    nested = _nested_def_names(caller)
    enclosing = (
        index.classes.get(caller.cls) if caller.cls is not None else None
    )
    if isinstance(cb, ast.Lambda):
        return "lambda callback"
    if isinstance(cb, ast.Name) and cb.id in nested:
        return f"nested function {cb.id!r} (closure over locals)"
    if isinstance(cb, ast.Call):
        dotted = _dotted_of(cb.func) or ""
        tail = dotted.rsplit(".", 1)[-1]
        if tail == "partial":
            return _partial_reason(index, caller, cb, nested)
        if tail == "MethodType" or tail == "__get__":
            return "ad-hoc bound-method construction (no MRO identity path)"
        resolved = index.resolve_call(
            cb,
            module=caller.module,
            enclosing=enclosing,
            env=index.env_for_function(caller),
        )
        if (
            resolved is not None
            and resolved.name != "__init__"
            and _returns_closure(resolved)
        ):
            return f"callback factory {resolved.name!r} returning a closure"
        return None
    if (
        isinstance(cb, ast.Attribute)
        and isinstance(cb.value, ast.Name)
        and cb.value.id == "self"
        and _class_attr_lambda(enclosing, cb.attr)
    ):
        return f"attribute self.{cb.attr} holding a lambda"
    return None


def _partial_reason(
    index: ProjectIndex,
    caller: FunctionInfo,
    cb: ast.Call,
    nested: set[str],
) -> str | None:
    if not cb.args:
        return None
    inner = cb.args[0]
    if isinstance(inner, ast.Lambda):
        return "functools.partial over a lambda"
    if isinstance(inner, ast.Name) and inner.id in nested:
        return f"functools.partial over nested function {inner.id!r}"
    local_map = _local_unpicklables(index, caller)
    captured = [*cb.args[1:], *[kw.value for kw in cb.keywords]]
    for arg in captured:
        desc = _unpicklable_expr(index, caller, arg, local_map, nested)
        if desc is not None:
            return f"functools.partial capturing {desc}"
    return None


# ---------------------------------------------------------------------------
# SIM402 — snapshot completeness / state escape
# ---------------------------------------------------------------------------

_ESCAPE_MESSAGES = {
    "module-global": (
        "dispatch-reachable write to module-level {name!r}: it is outside "
        "the {{sim, world, counters}} checkpoint root set, so restore "
        "silently resets it; move it onto a component or the world"
    ),
    "class-attr": (
        "dispatch-reachable write to class attribute {name}: class "
        "attributes are outside the checkpoint root set and survive "
        "restore with stale values; use instance state"
    ),
    "default-arg": (
        "mutable default argument {name!r} is written by dispatch-reachable "
        "code: it accumulates state on the function object, invisible to "
        "the checkpoint; pass the container explicitly"
    ),
    "raw-counter": (
        "raw itertools.count stream {name!r} consumed from "
        "dispatch-reachable code cannot be snapshotted or rewound; "
        "register a repro.sim.serial.SerialCounter instead"
    ),
}


def _check_state_escape(
    index: ProjectIndex,
    graph: CallGraph,
    effects: EffectMap,
    emitters: _Emitters,
) -> None:
    reachable = graph.reachable_from_dispatch()
    for gw in effects.global_sites:
        fn = index.functions.get(gw.function)
        if fn is None or not _scoped(fn.module):
            continue
        if gw.function not in reachable:
            continue
        emit = emitters.for_module(fn.module)
        if emit is None:
            continue
        template = _ESCAPE_MESSAGES.get(gw.kind)
        if template is None:
            continue
        emit(
            "SIM402",
            _anchor(gw.line, gw.col),
            template.format(name=gw.name),
        )


# ---------------------------------------------------------------------------
# SIM403 — slots-manifest & reducer drift
# ---------------------------------------------------------------------------

def heap_class_census(index: ProjectIndex, graph: CallGraph) -> frozenset[str]:
    """Classes whose bound methods the dispatch loop can hold.

    Owners of every dispatch-seeded callback: schedule targets, batch
    handlers, extra callback arguments — the classes the checkpoint
    pickler must re-bind methods of.
    """
    owners: set[str] = set()
    for qual in graph.seeds:
        fn = index.functions.get(qual)
        if fn is not None and fn.cls is not None:
            owners.add(fn.cls)
    return frozenset(owners)


def _declared_manifest() -> frozenset[str]:
    slots = {
        f"{module}.{name}"
        for module, names in SLOTS_MANIFEST.items()
        for name in names
    }
    return frozenset(set(COMPONENT_CLASSES) | slots | HEAP_EXTRA_CLASSES)


def _class_def_node(
    index: ProjectIndex, cls: ClassInfo
) -> ast.ClassDef | None:
    mod = index.modules.get(cls.module)
    if mod is None:
        return None
    for node in ast.walk(mod.tree):
        if isinstance(node, ast.ClassDef) and node.name == cls.name:
            return node
    return None


def _subclass_closure(
    index: ProjectIndex, roots: frozenset[str]
) -> frozenset[str]:
    family = set(roots)
    changed = True
    while changed:
        changed = False
        for cls in index.classes.values():
            if cls.qualname in family:
                continue
            for base in cls.bases:
                qual = index.resolve_dotted(cls.module, base)
                if qual in family:
                    family.add(cls.qualname)
                    changed = True
                    break
    return frozenset(family)


def _check_manifest_drift(
    index: ProjectIndex, graph: CallGraph, emitters: _Emitters
) -> None:
    census = heap_class_census(index, graph)
    declared = _declared_manifest()
    for qual in sorted(census):
        cls = index.classes.get(qual)
        if cls is None or not _scoped(cls.module):
            continue
        if qual in declared:
            continue
        node = _class_def_node(index, cls)
        emit = emitters.for_module(cls.module)
        if node is None or emit is None:
            continue
        emit(
            "SIM403",
            node,
            f"class {cls.name} owns heap-scheduled callbacks but is not "
            "declared in the checkpoint manifest (COMPONENT_CLASSES / "
            "SLOTS_MANIFEST / HEAP_EXTRA_CLASSES); declare it after "
            "confirming it round-trips through repro.sim.checkpoint",
        )
    # Reducer drift over the census plus Simulator and its subclasses
    # (every checkpoint pickles the simulator itself).
    family = _subclass_closure(
        index, census | frozenset({_SIMULATOR_QUALNAME})
    )
    for qual in sorted(family):
        cls = index.classes.get(qual)
        if cls is None or qual in REDUCER_SANCTIONED:
            continue
        if cls.module in SNAPSHOT_EXEMPT_MODULES:
            continue
        for hook in _REDUCER_HOOKS:
            method = cls.methods.get(hook)
            if method is None:
                continue
            emit = emitters.for_module(cls.module)
            if emit is None:
                continue
            emit(
                "SIM403",
                method.node,
                f"heap-reachable class {cls.name} defines {hook}, which "
                "the checkpoint pickler honours — restored methods could "
                "bind to objects the world no longer references; drop the "
                "hook or add the class to REDUCER_SANCTIONED with a "
                "round-trip test",
            )


# ---------------------------------------------------------------------------
# SIM404 — restore-order typestate
# ---------------------------------------------------------------------------

def _calls_outside_nested(fn_node: ast.AST) -> list[ast.Call]:
    """Call nodes in the function body, excluding nested def/lambda
    bodies (the ``build`` factory passed to ``resume_or_start``
    legitimately constructs the Simulator inside a nested def)."""
    out: list[ast.Call] = []
    stack = list(ast.iter_child_nodes(fn_node))
    while stack:
        node = stack.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue
        if isinstance(node, ast.Call):
            out.append(node)
        stack.extend(ast.iter_child_nodes(node))
    return sorted(out, key=lambda n: (n.lineno, n.col_offset))


def _constructs_simulator(
    index: ProjectIndex, fn: FunctionInfo, node: ast.Call,
    simulator_family: frozenset[str],
) -> bool:
    target = _api_target(index, fn.module, node)
    if target in simulator_family:
        return True
    enclosing = index.classes.get(fn.cls) if fn.cls is not None else None
    resolved = index.resolve_call(
        node,
        module=fn.module,
        enclosing=enclosing,
        env=index.env_for_function(fn),
    )
    return (
        resolved is not None
        and resolved.name == "__init__"
        and resolved.cls in simulator_family
    )


def _mentions_recipe(node: ast.Call) -> bool:
    """A ``"failure.json"`` constant anywhere in the call (arguments or
    receiver chain) — a recipe path being built or consumed; a help
    string naming the file hangs off a non-path-consumer call and
    never reaches here."""
    for sub in ast.walk(node):
        if isinstance(sub, ast.Constant) and sub.value == "failure.json":
            return True
    return False


def _check_lifecycle(
    index: ProjectIndex, graph: CallGraph, emitters: _Emitters
) -> None:
    reachable = graph.reachable_from_dispatch()
    simulator_family = _subclass_closure(
        index, frozenset({_SIMULATOR_QUALNAME})
    )
    for qual, fn in sorted(index.functions.items()):
        if not fn.module.startswith("repro."):
            continue
        if fn.module in SNAPSHOT_EXEMPT_MODULES:
            continue
        emit = None
        calls = _calls_outside_nested(fn.node)
        targets = [(_api_target(index, fn.module, c), c) for c in calls]
        resume_call = next(
            (c for t, c in targets if t in _RESUME_API), None
        )
        first_save = next((c for t, c in targets if t in _SAVE_API), None)
        first_load = next((c for t, c in targets if t in _LOAD_API), None)
        findings: list[tuple[ast.AST, str]] = []
        if resume_call is not None:
            for t, call in targets:
                if _constructs_simulator(index, fn, call, simulator_family):
                    findings.append(
                        (
                            call,
                            "manual Simulator construction beside "
                            "resume_or_start in the same driver path: the "
                            "manual instance never adopts restored state; "
                            "construct inside the build factory passed to "
                            "resume_or_start",
                        )
                    )
        if (
            first_save is not None
            and first_load is not None
            and (first_load.lineno, first_load.col_offset)
            < (first_save.lineno, first_save.col_offset)
        ):
            findings.append(
                (
                    first_load,
                    "checkpoint load precedes save in the same driver "
                    "body: the path being restored is then overwritten; "
                    "save to a fresh checkpoint or split the driver",
                )
            )
        for t, call in targets:
            if t in _COUNTER_API:
                findings.append(
                    (
                        call,
                        f"direct {t.rsplit('.', 1)[-1]} call outside "
                        "repro.sim.checkpoint: counter snapshots are part "
                        "of the checkpoint payload and must stay in sync "
                        "with the sim/world pickle",
                    )
                )
            elif t in _SAVE_API and qual in reachable:
                findings.append(
                    (
                        call,
                        "checkpoint save from a dispatch-reachable "
                        "callback: the in-flight event is not on the heap, "
                        "so the snapshot would drop it; save between "
                        "events (run_with_checkpoints)",
                    )
                )
            if (
                t is not None
                and t.rsplit(".", 1)[-1] in _PATH_CONSUMERS
                and _mentions_recipe(call)
                and not fn.name.startswith(("replay", "cmd_replay"))
            ):
                findings.append(
                    (
                        call,
                        "failure.json recipe consumed outside a replay "
                        "entry point: recipes pin checkpoint + horizon and "
                        "are only meaningful to repro replay-failure",
                    )
                )
        for node, message in findings:
            if emit is None:
                emit = emitters.for_module(fn.module)
            if emit is None:
                break
            emit("SIM404", node, message)


# ---------------------------------------------------------------------------
# driver + findings cache
# ---------------------------------------------------------------------------

def check_snapshots(
    index: ProjectIndex, graph: CallGraph, effects: EffectMap
) -> list[Violation]:
    """All SIM401–SIM404 findings over one indexed project."""
    violations: list[Violation] = []
    emitters = _Emitters(index, violations)
    _check_heap_picklability(index, graph, emitters)
    _check_state_escape(index, graph, effects, emitters)
    _check_manifest_drift(index, graph, emitters)
    _check_lifecycle(index, graph, emitters)
    return violations


def snapshots_cache_path(cache_path: Path | None) -> Path | None:
    """``snapshots.json`` beside the AST index cache (None disables)."""
    if cache_path is None:
        return None
    return cache_path.parent / "snapshots.json"


def load_or_compute_snapshots(
    index: ProjectIndex,
    graph: CallGraph,
    effects: EffectMap,
    cache_path: Path | None,
) -> list[Violation]:
    """Cached SIM4xx findings when the project digest matches, else
    recompute and rewrite.  Suppression directives live in the sources,
    so any edit that changes them also changes the digest — a hit can
    never serve stale findings.
    """
    digest = project_digest(index)
    if cache_path is not None and cache_path.exists():
        try:
            data = json.loads(cache_path.read_text())
            if (
                data.get("version") == _SNAPSHOTS_VERSION
                and data.get("digest") == digest
            ):
                return [
                    Violation(
                        rule=v["rule"], path=v["path"], line=v["line"],
                        col=v["col"], message=v["message"],
                    )
                    for v in data["violations"]
                ]
        except (ValueError, KeyError, TypeError):
            pass  # corrupt cache: fall through to recompute
    violations = check_snapshots(index, graph, effects)
    if cache_path is not None:
        try:
            cache_path.parent.mkdir(parents=True, exist_ok=True)
            cache_path.write_text(
                json.dumps(
                    {
                        "version": _SNAPSHOTS_VERSION,
                        "digest": digest,
                        "violations": [v.as_dict() for v in violations],
                    },
                    indent=1,
                )
                + "\n"
            )
        except OSError:
            pass  # caching is best-effort
    return violations
