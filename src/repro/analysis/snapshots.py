"""Snapshot-safety rules (SIM401–SIM404) over the project call graph.

PR 9 made checkpoint/restore load-bearing (resumable sweeps,
crash-resilient supervision, time-travel failure replay — DESIGN §11),
and its correctness rests on conventions the type system cannot see:
schedule sites must be closure-free, id streams must route through
:class:`repro.sim.serial.SerialCounter`, and no simulation state may
live outside the pickled ``{sim, world, counters}`` root set.  This
pass turns those conventions into machine-checked invariants:

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
    worse, at restore.  Flagged at the ``schedule*`` / ``heappush``
    site that would put it on the heap.
SIM402
    Snapshot completeness: the checkpoint payload is exactly
    ``{sim, world, counters}``, so mutable state written from
    dispatch-reachable code that lives *outside* that root set —
    module-level globals, class attributes, mutable default-argument
    caches, raw ``itertools.count`` streams not registered as a
    :class:`~repro.sim.serial.SerialCounter` — silently resets (or
    stays stale) on restore.  Each function's writes are collected
    directly; dispatch reachability already closes over its callees.
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
degrade to silence, not noise.  Findings are cached beside the AST
index as ``snapshots.json``, keyed by a whole-project content digest.
"""

from __future__ import annotations

import ast
import hashlib
import json
from dataclasses import dataclass
from pathlib import Path

from repro.analysis.callgraph import (
    CallGraph,
    ClassInfo,
    FunctionInfo,
    ProjectIndex,
)
from repro.analysis.manifest import (
    CHECKPOINT_PACKAGES,
    COMPONENT_CLASSES,
    HEAP_EXTRA_CLASSES,
    REDUCER_SANCTIONED,
    SLOTS_MANIFEST,
    SNAPSHOT_EXEMPT_MODULES,
)
from repro.analysis.simlint import Emitter, Violation, make_emitter

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


class _Emitters:
    """Per-module emit callbacks, built lazily."""

    def __init__(self, index: ProjectIndex, violations: list[Violation]) -> None:
        self.index = index
        self.violations = violations
        self._cache: dict[str, Emitter] = {}

    def for_module(self, module: str) -> Emitter | None:
        emit = self._cache.get(module)
        if emit is None:
            mod = self.index.modules.get(module)
            if mod is None:
                return None
            emit = make_emitter(mod.source, mod.path, self.violations)
            self._cache[module] = emit
        return emit


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
    site_kinds = {"schedule": "schedule", "heappush": "inlined heappush"}
    for site in graph.schedule_sites:
        caller = index.functions.get(site.caller)
        if caller is None or not _scoped(caller.module):
            continue
        if site.callback is None or site.target is not None:
            continue  # resolved method references re-bind by MRO identity
        emit = emitters.for_module(caller.module)
        if emit is None:
            continue
        where = site_kinds[site.kind]
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


#: Constructors whose module-level result is mutable container state.
_MUTABLE_CTORS = frozenset(
    {"dict", "list", "set", "defaultdict", "deque", "OrderedDict", "Counter"}
)
#: Methods that mutate a container in place.
_MUTATING_METHODS = frozenset(
    {
        "append", "appendleft", "add", "update", "setdefault", "pop",
        "popleft", "popitem", "clear", "extend", "extendleft", "remove",
        "discard", "insert",
    }
)


def _root_name(expr: ast.expr) -> str | None:
    """The name at the root of an attribute/subscript chain, or None."""
    while isinstance(expr, (ast.Attribute, ast.Subscript)):
        expr = expr.value
    return expr.id if isinstance(expr, ast.Name) else None


@dataclass(frozen=True)
class _ModuleGlobals:
    """Module-level mutable names, classified once per module."""

    mutable: frozenset[str]  # containers: dict/list/set/… literals + ctors
    counters: frozenset[str]  # raw itertools.count streams


def _module_globals(index: ProjectIndex, module: str) -> _ModuleGlobals:
    """Classify a module's top-level assignments.

    ``SerialCounter(...)`` bindings are deliberately *not* recorded:
    registry-named counters are the sanctioned, checkpoint-visible id
    stream (:mod:`repro.sim.serial`).
    """
    mutable: set[str] = set()
    counters: set[str] = set()
    for stmt in index.modules[module].tree.body:
        targets: list[ast.expr]
        if isinstance(stmt, ast.Assign):
            targets = stmt.targets
            value = stmt.value
        elif isinstance(stmt, ast.AnnAssign) and stmt.value is not None:
            targets = [stmt.target]
            value = stmt.value
        else:
            continue
        names = [t.id for t in targets if isinstance(t, ast.Name)]
        if not names:
            continue
        if isinstance(value, (ast.Dict, ast.List, ast.Set, ast.DictComp,
                              ast.ListComp, ast.SetComp)):
            mutable.update(names)
        elif isinstance(value, ast.Call):
            resolved = _api_target(index, module, value) or ""
            tail = resolved.rsplit(".", 1)[-1]
            if resolved == "itertools.count" or resolved.endswith(
                ".itertools.count"
            ):
                counters.update(names)
            elif tail in _MUTABLE_CTORS:
                mutable.update(names)
    return _ModuleGlobals(
        mutable=frozenset(mutable), counters=frozenset(counters)
    )


class _EscapeCollector:
    """One function's own writes to state outside the checkpoint roots.

    Records ``(kind, name, node)`` with kind one of ``module-global`` /
    ``class-attr`` / ``default-arg`` / ``raw-counter``.  Per-function,
    not propagated: dispatch reachability already closes over callees.
    """

    def __init__(
        self, index: ProjectIndex, fn: FunctionInfo, globals_inv: _ModuleGlobals
    ) -> None:
        self.index = index
        self.fn = fn
        self.globals_inv = globals_inv
        self.sites: list[tuple[str, str, ast.AST]] = []
        # Names the function binds locally (params + stores): a local
        # shadowing a module global is not module state.
        self._locals: set[str] = {p.name for p in fn.params}
        self._global_decls: set[str] = set()
        for node in ast.walk(fn.node):
            if isinstance(node, ast.Global):
                self._global_decls.update(node.names)
            elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
                self._locals.add(node.id)
        self._locals -= self._global_decls

    def collect(self) -> list[tuple[str, str, ast.AST]]:
        for node in ast.walk(self.fn.node):
            if isinstance(node, (ast.Assign, ast.AugAssign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                for target in targets:
                    self._record_store(node, target)
            elif isinstance(node, ast.Call):
                self._record_call(node)
        self._record_default_arg_caches()
        return self.sites

    def _is_module_state(self, name: str) -> bool:
        return name in self.globals_inv.mutable and name not in self._locals

    def _class_attr_of(self, target: ast.expr) -> str | None:
        """``Cls.attr = …`` / ``type(self).attr = …`` -> ``Cls.attr``."""
        node: ast.expr = target
        while isinstance(node, ast.Subscript):
            node = node.value
        if not isinstance(node, ast.Attribute):
            return None
        base = node.value
        if isinstance(base, ast.Name) and base.id not in self._locals:
            qual = self.index.resolve_dotted(self.fn.module, base.id)
            if qual is not None and qual in self.index.classes:
                return f"{base.id}.{node.attr}"
        if (
            isinstance(base, ast.Call)
            and isinstance(base.func, ast.Name)
            and base.func.id == "type"
            and base.args
        ):
            return f"type(...).{node.attr}"
        return None

    def _record_store(self, node: ast.stmt, target: ast.expr) -> None:
        if isinstance(target, ast.Name):
            if target.id in self._global_decls:
                self.sites.append(("module-global", target.id, node))
            return
        root = _root_name(target)
        if root is not None and self._is_module_state(root):
            self.sites.append(("module-global", root, node))
            return
        cls_attr = self._class_attr_of(target)
        if cls_attr is not None:
            self.sites.append(("class-attr", cls_attr, node))

    def _record_call(self, node: ast.Call) -> None:
        func = node.func
        if (
            isinstance(func, ast.Name)
            and func.id == "next"
            and node.args
            and isinstance(node.args[0], ast.Name)
            and node.args[0].id in self.globals_inv.counters
            and node.args[0].id not in self._locals
        ):
            self.sites.append(("raw-counter", node.args[0].id, node))
            return
        if not (
            isinstance(func, ast.Attribute) and func.attr in _MUTATING_METHODS
        ):
            return
        root = _root_name(func.value)
        if root is not None and self._is_module_state(root):
            self.sites.append(("module-global", root, node))
            return
        cls_attr = self._class_attr_of(func.value)
        if cls_attr is not None:
            self.sites.append(("class-attr", cls_attr, node))

    def _record_default_arg_caches(self) -> None:
        """Mutable default arguments the body writes into: one shared
        instance across calls, living on the function object — outside
        every checkpoint payload."""
        args = self.fn.node.args
        pos = [*args.posonlyargs, *args.args]
        pairs = list(zip(pos[len(pos) - len(args.defaults):], args.defaults))
        pairs += [
            (a, d) for a, d in zip(args.kwonlyargs, args.kw_defaults)
            if d is not None
        ]
        for arg, default in pairs:
            if not isinstance(
                default, (ast.Dict, ast.List, ast.Set)
            ) and not (
                isinstance(default, ast.Call)
                and isinstance(default.func, ast.Name)
                and default.func.id in _MUTABLE_CTORS
            ):
                continue
            if self._param_is_mutated(arg.arg):
                self.sites.append(("default-arg", arg.arg, default))

    def _param_is_mutated(self, name: str) -> bool:
        for node in ast.walk(self.fn.node):
            if isinstance(node, (ast.Assign, ast.AugAssign, ast.AnnAssign)):
                targets = (
                    node.targets if isinstance(node, ast.Assign)
                    else [node.target]
                )
                for target in targets:
                    if not isinstance(target, ast.Name) and (
                        _root_name(target) == name
                    ):
                        return True
            elif (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr in _MUTATING_METHODS
                and _root_name(node.func.value) == name
            ):
                return True
        return False


def _check_state_escape(
    index: ProjectIndex, graph: CallGraph, emitters: _Emitters
) -> None:
    inventories: dict[str, _ModuleGlobals] = {}
    for qual in sorted(graph.reachable_from_dispatch()):
        fn = index.functions.get(qual)
        if fn is None or not _scoped(fn.module):
            continue
        emit = emitters.for_module(fn.module)
        if emit is None:
            continue
        inv = inventories.get(fn.module)
        if inv is None:
            inv = inventories[fn.module] = _module_globals(index, fn.module)
        for kind, name, node in _EscapeCollector(index, fn, inv).collect():
            emit("SIM402", node, _ESCAPE_MESSAGES[kind].format(name=name))


# ---------------------------------------------------------------------------
# SIM403 — slots-manifest & reducer drift
# ---------------------------------------------------------------------------

def heap_class_census(index: ProjectIndex, graph: CallGraph) -> frozenset[str]:
    """Classes whose bound methods the dispatch loop can hold.

    Owners of every dispatch-seeded callback: schedule targets and
    extra callback arguments — the classes the checkpoint pickler must
    re-bind methods of.
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
    return COMPONENT_CLASSES | slots | HEAP_EXTRA_CLASSES


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

def check_snapshots(index: ProjectIndex, graph: CallGraph) -> list[Violation]:
    """All SIM401–SIM404 findings over one indexed project."""
    violations: list[Violation] = []
    emitters = _Emitters(index, violations)
    _check_heap_picklability(index, graph, emitters)
    _check_state_escape(index, graph, emitters)
    _check_manifest_drift(index, graph, emitters)
    _check_lifecycle(index, graph, emitters)
    return violations


def project_digest(index: ProjectIndex) -> str:
    """Content digest of every indexed module, order-independent."""
    h = hashlib.sha256()
    for name in sorted(index.modules):
        mod = index.modules[name]
        h.update(name.encode())
        h.update(hashlib.sha256(mod.source.encode()).digest())
    return h.hexdigest()


def snapshots_cache_path(cache_path: Path | None) -> Path | None:
    """``snapshots.json`` beside the AST index cache (None disables)."""
    if cache_path is None:
        return None
    return cache_path.parent / "snapshots.json"


def load_or_compute_snapshots(
    index: ProjectIndex,
    graph: CallGraph,
    cache_path: Path | None,
) -> list[Violation]:
    """Cached SIM4xx findings when the project digest matches, else
    recompute and rewrite.  Suppression directives live in the sources,
    so any edit that changes them also changes the digest — a hit can
    never serve stale findings.  A corrupt cache only costs a recompute.
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
    violations = check_snapshots(index, graph)
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
