"""Project-wide symbol table and call graph for the whole-program linter.

The per-file rules of :mod:`repro.analysis.simlint` are syntactic; the
units (:mod:`repro.analysis.units`) and purity
(:mod:`repro.analysis.purity`) passes need to reason *across* modules:
which function does ``self._finish_cb`` point at, what class is
``nic.link``, which callbacks can the dispatch loop of
:class:`repro.sim.engine.Simulator` ever invoke.  This module builds
that substrate with nothing but :mod:`ast`:

* :class:`ProjectIndex` — every module's imports, classes (with
  attribute types collected from ``__init__`` assignments and
  annotations), functions, parameter/return units;
* :class:`TypeEnv` / :func:`ProjectIndex.type_of_expr` — a lightweight
  forward type inference for locals (``nic = self.nic`` ⇒ ``NIC``),
  enough to resolve method calls and component ownership;
* :class:`CallGraph` — direct call edges, function-reference edges
  (``on_done=self._finish`` escaping into another call), and the
  scheduler indirection: ``sim.schedule(delay, callback, *args)``
  records ``callback``'s resolved target, and the set of all such
  targets seeds dispatch-loop reachability.

Everything here is best-effort static resolution: an unresolvable call
contributes no edge, an unresolvable type is ``None``.  The checkers
built on top only flag *known-known* conflicts, so partial knowledge
degrades to silence, not noise.
"""

from __future__ import annotations

import ast
import hashlib
import pickle
from dataclasses import dataclass, field
from pathlib import Path

from repro.analysis.simlint import module_name_of
from repro.core.units import ALIAS_UNITS, suffix_unit

__all__ = [
    "CallGraph",
    "ClassInfo",
    "FunctionInfo",
    "ModuleInfo",
    "ParamInfo",
    "ProjectIndex",
    "ScheduleSite",
    "TypeEnv",
    "annotation_to_dotted",
    "annotation_to_unit",
]

#: Method names treated as the scheduler indirection.  The callback
#: argument position is 1 for all five (``schedule(delay, cb, *args)``,
#: ``schedule_at(time, cb, *args)``, their handle-free ``_anon`` twins,
#: and ``schedule_recurring_anon(interval, cb, *, until_ns)``) —
#: anonymous events dispatch exactly like handled ones, so their
#: callbacks are SIM2xx entry points too.
SCHEDULE_METHODS: frozenset[str] = frozenset(
    {
        "schedule",
        "schedule_at",
        "schedule_anon",
        "schedule_at_anon",
        "schedule_recurring_anon",
    }
)

_CACHE_VERSION = 1


# ---------------------------------------------------------------------------
# annotation helpers
# ---------------------------------------------------------------------------

def _strip_optional(node: ast.expr) -> ast.expr:
    """``X | None`` / ``Optional[X]`` -> ``X`` (one level)."""
    if isinstance(node, ast.BinOp) and isinstance(node.op, ast.BitOr):
        left, right = node.left, node.right
        if isinstance(right, ast.Constant) and right.value is None:
            return _strip_optional(left)
        if isinstance(left, ast.Constant) and left.value is None:
            return _strip_optional(right)
        return node
    if isinstance(node, ast.Subscript):
        base = node.value
        base_name = base.attr if isinstance(base, ast.Attribute) else (
            base.id if isinstance(base, ast.Name) else ""
        )
        if base_name == "Optional":
            return _strip_optional(node.slice)
    return node


def _parse_string_annotation(node: ast.expr) -> ast.expr:
    """Quoted annotations (``"NIC"``) -> the expression they contain."""
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        try:
            return ast.parse(node.value, mode="eval").body
        except SyntaxError:
            return node
    return node


def _dotted(node: ast.expr) -> str | None:
    """``a.b.c`` chains as a string, else None."""
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None


def annotation_to_dotted(node: ast.expr | None) -> str | None:
    """The dotted *type* name an annotation refers to, or None.

    Containers (``dict[...]``, ``list[...]``) and unit aliases resolve
    to None — they are not component classes.
    """
    if node is None:
        return None
    node = _strip_optional(_parse_string_annotation(node))
    if isinstance(node, ast.Subscript):
        return None
    name = _dotted(node)
    if name is None:
        return None
    if name.split(".")[-1] in ALIAS_UNITS:
        return None
    return name


def annotation_to_unit(node: ast.expr | None) -> str | None:
    """The unit a signature annotation declares, or None.

    Recognises the :mod:`repro.core.units` aliases by name —
    ``Nanoseconds``, ``delay: "Bytes"``, ``Nanoseconds | None`` all map
    to their unit string.
    """
    if node is None:
        return None
    node = _strip_optional(_parse_string_annotation(node))
    name = _dotted(node)
    if name is None:
        return None
    return ALIAS_UNITS.get(name.split(".")[-1])


# ---------------------------------------------------------------------------
# symbol table
# ---------------------------------------------------------------------------

@dataclass
class ParamInfo:
    """One formal parameter of a project function."""

    name: str
    annotation: str | None  # raw dotted type name (unresolved)
    unit: str | None  # from an alias annotation, else the name suffix

    @staticmethod
    def from_arg(arg: ast.arg) -> "ParamInfo":
        unit = annotation_to_unit(arg.annotation)
        if unit is None:
            unit = suffix_unit(arg.arg)
        return ParamInfo(
            name=arg.arg,
            annotation=annotation_to_dotted(arg.annotation),
            unit=unit,
        )


@dataclass
class FunctionInfo:
    """One top-level function or method."""

    qualname: str
    module: str
    name: str
    cls: str | None  # owning class qualname, None for module-level
    node: ast.FunctionDef | ast.AsyncFunctionDef
    params: list[ParamInfo]
    is_method: bool
    return_annotation: str | None
    return_unit: str | None  # declared alias, else the function-name suffix

    @property
    def call_params(self) -> list[ParamInfo]:
        """Parameters as seen by a caller (``self`` stripped)."""
        if self.is_method and self.params and self.params[0].name in ("self", "cls"):
            return self.params[1:]
        return self.params


@dataclass
class ClassInfo:
    """One project class: methods, attribute types/units, aliases."""

    qualname: str
    module: str
    name: str
    bases: list[str]  # raw dotted base names (unresolved)
    methods: dict[str, FunctionInfo] = field(default_factory=dict)
    #: attribute -> raw dotted type name (from annotations, ``self.x =
    #: param``, ``self.x = Class(...)``).
    attr_types: dict[str, str] = field(default_factory=dict)
    #: attribute -> unit, from explicit alias annotations only (suffix
    #: inference happens at the use site).
    attr_units: dict[str, str] = field(default_factory=dict)
    #: attribute -> method name (``self._finish_cb = self._finish``).
    method_aliases: dict[str, str] = field(default_factory=dict)
    is_protocol: bool = False
    is_dataclass: bool = False


@dataclass
class ModuleInfo:
    """Per-file symbols: parsed once, linked on demand."""

    name: str
    path: str
    tree: ast.Module
    source: str
    #: local alias -> dotted import target (``np`` -> ``numpy``,
    #: ``Link`` -> ``repro.net.link.Link``).
    imports: dict[str, str] = field(default_factory=dict)
    functions: dict[str, FunctionInfo] = field(default_factory=dict)
    classes: dict[str, ClassInfo] = field(default_factory=dict)


def _collect_imports(tree: ast.Module) -> dict[str, str]:
    imports: dict[str, str] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                local = alias.asname or alias.name.split(".")[0]
                target = alias.name if alias.asname else alias.name.split(".")[0]
                imports[local] = target
        elif isinstance(node, ast.ImportFrom):
            if node.level:  # relative imports don't occur in this repo
                continue
            base = node.module or ""
            for alias in node.names:
                if alias.name == "*":
                    continue
                local = alias.asname or alias.name
                imports[local] = f"{base}.{alias.name}" if base else alias.name
    return imports


def _function_info(
    node: ast.FunctionDef | ast.AsyncFunctionDef,
    module: str,
    cls: ClassInfo | None,
) -> FunctionInfo:
    args = node.args
    all_args = [*args.posonlyargs, *args.args, *args.kwonlyargs]
    params = [ParamInfo.from_arg(a) for a in all_args]
    return_unit = annotation_to_unit(node.returns)
    if return_unit is None:
        return_unit = suffix_unit(node.name)
    owner = f"{module}.{cls.name}" if cls is not None else module
    return FunctionInfo(
        qualname=f"{owner}.{node.name}",
        module=module,
        name=node.name,
        cls=cls.qualname if cls is not None else None,
        node=node,
        params=params,
        is_method=cls is not None,
        return_annotation=annotation_to_dotted(node.returns),
        return_unit=return_unit,
    )


def _scan_class_attrs(info: ClassInfo) -> None:
    """Record ``self.x`` types/units and method aliases from all methods."""
    for fn in info.methods.values():
        params = {p.name: p for p in fn.params}
        for stmt in ast.walk(fn.node):
            if isinstance(stmt, ast.AnnAssign):
                target = stmt.target
                if (
                    isinstance(target, ast.Attribute)
                    and isinstance(target.value, ast.Name)
                    and target.value.id == "self"
                ):
                    dotted = annotation_to_dotted(stmt.annotation)
                    if dotted is not None:
                        info.attr_types.setdefault(target.attr, dotted)
                    unit = annotation_to_unit(stmt.annotation)
                    if unit is not None:
                        info.attr_units.setdefault(target.attr, unit)
            elif isinstance(stmt, ast.Assign):
                for target in stmt.targets:
                    if not (
                        isinstance(target, ast.Attribute)
                        and isinstance(target.value, ast.Name)
                        and target.value.id == "self"
                    ):
                        continue
                    value = stmt.value
                    if isinstance(value, ast.Name) and value.id in params:
                        ann = params[value.id].annotation
                        if ann is not None:
                            info.attr_types.setdefault(target.attr, ann)
                    elif isinstance(value, ast.Call):
                        callee = _dotted(value.func)
                        if callee is not None and callee[:1].isalpha():
                            info.attr_types.setdefault(target.attr, callee)
                    elif (
                        isinstance(value, ast.Attribute)
                        and isinstance(value.value, ast.Name)
                        and value.value.id == "self"
                        and value.attr in info.methods
                    ):
                        info.method_aliases.setdefault(target.attr, value.attr)


def _class_info(node: ast.ClassDef, module: str) -> ClassInfo:
    bases = [b for b in (_dotted(base) for base in node.bases) if b is not None]
    info = ClassInfo(
        qualname=f"{module}.{node.name}",
        module=module,
        name=node.name,
        bases=bases,
        is_protocol=any(b.split(".")[-1] == "Protocol" for b in bases),
        is_dataclass=any(
            (d := _dotted(deco.func if isinstance(deco, ast.Call) else deco))
            is not None
            and d.split(".")[-1] == "dataclass"
            for deco in node.decorator_list
        ),
    )
    for stmt in node.body:
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
            info.methods[stmt.name] = _function_info(stmt, module, info)
        elif isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name):
            # Class-level annotations: dataclass fields, typed class attrs.
            dotted = annotation_to_dotted(stmt.annotation)
            if dotted is not None:
                info.attr_types.setdefault(stmt.target.id, dotted)
            unit = annotation_to_unit(stmt.annotation)
            if unit is None:
                unit = suffix_unit(stmt.target.id)
            if unit is not None:
                info.attr_units.setdefault(stmt.target.id, unit)
    _scan_class_attrs(info)
    if info.is_dataclass and "__init__" not in info.methods:
        # Synthesise an __init__ signature from the field annotations so
        # constructor keyword arguments can be unit-checked.
        fields = [
            ParamInfo(name=name, annotation=info.attr_types.get(name),
                      unit=info.attr_units.get(name))
            for name, _ in _dataclass_fields(node)
        ]
        info.methods["__init__"] = FunctionInfo(
            qualname=f"{info.qualname}.__init__",
            module=module,
            name="__init__",
            cls=info.qualname,
            node=ast.FunctionDef(
                name="__init__",
                args=ast.arguments(
                    posonlyargs=[], args=[], kwonlyargs=[],
                    kw_defaults=[], defaults=[],
                ),
                body=[],
                decorator_list=[],
            ),
            params=[ParamInfo(name="self", annotation=None, unit=None), *fields],
            is_method=True,
            return_annotation=None,
            return_unit=None,
        )


    return info


def _dataclass_fields(node: ast.ClassDef) -> list[tuple[str, ast.expr]]:
    out: list[tuple[str, ast.expr]] = []
    for stmt in node.body:
        if isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name):
            out.append((stmt.target.id, stmt.annotation))
    return out


def parse_module(path: Path, source: str) -> ModuleInfo | None:
    """Parse one file into a :class:`ModuleInfo` (None if unattributed)."""
    module = module_name_of(path, source)
    if module is None:
        return None
    try:
        tree = ast.parse(source, filename=str(path))
    except SyntaxError:
        return None  # reported as SIM999 by the per-file pass
    info = ModuleInfo(
        name=module, path=str(path), tree=tree, source=source,
        imports=_collect_imports(tree),
    )
    for stmt in tree.body:
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
            info.functions[stmt.name] = _function_info(stmt, module, None)
        elif isinstance(stmt, ast.ClassDef):
            info.classes[stmt.name] = _class_info(stmt, module)
    return info


# ---------------------------------------------------------------------------
# the index
# ---------------------------------------------------------------------------

class TypeEnv:
    """Mutable local-variable type environment for one function scope."""

    __slots__ = ("types",)

    def __init__(self) -> None:
        self.types: dict[str, str] = {}  # local name -> class qualname


class ProjectIndex:
    """All modules of a lint run, with cross-module resolution."""

    def __init__(self, modules: list[ModuleInfo]) -> None:
        self.modules: dict[str, ModuleInfo] = {m.name: m for m in modules}
        self.classes: dict[str, ClassInfo] = {}
        self.functions: dict[str, FunctionInfo] = {}
        for mod in modules:
            for cls in mod.classes.values():
                self.classes[cls.qualname] = cls
                for fn in cls.methods.values():
                    self.functions[fn.qualname] = fn
            for fn in mod.functions.values():
                self.functions[fn.qualname] = fn

    # -- construction ---------------------------------------------------
    @staticmethod
    def build(files: list[tuple[Path, str]]) -> "ProjectIndex":
        infos = []
        for path, source in files:
            info = parse_module(path, source)
            if info is not None:
                infos.append(info)
        return ProjectIndex(infos)

    @staticmethod
    def build_cached(paths: list[Path], cache_path: Path | None) -> "ProjectIndex":
        """Build the index, reusing parsed modules from a pickle cache.

        Cache entries are keyed on the file's content hash, so a stale
        cache can only cost a re-parse, never produce stale analysis;
        cross-module linking always runs fresh.
        """
        cache: dict[str, tuple[str, ModuleInfo]] = {}
        if cache_path is not None and cache_path.exists():
            try:
                with cache_path.open("rb") as fh:
                    version, cache = pickle.load(fh)
                if version != _CACHE_VERSION:
                    cache = {}
            except Exception:  # corrupt cache: rebuild from scratch
                cache = {}
        infos: list[ModuleInfo] = []
        fresh: dict[str, tuple[str, ModuleInfo]] = {}
        for path in paths:
            source = path.read_text()
            digest = hashlib.sha256(source.encode()).hexdigest()
            key = str(path)
            hit = cache.get(key)
            if hit is not None and hit[0] == digest:
                fresh[key] = hit
                infos.append(hit[1])
                continue
            info = parse_module(path, source)
            if info is not None:
                fresh[key] = (digest, info)
                infos.append(info)
        if cache_path is not None:
            try:
                cache_path.parent.mkdir(parents=True, exist_ok=True)
                with cache_path.open("wb") as fh:
                    pickle.dump((_CACHE_VERSION, fresh), fh)
            except OSError:
                pass  # caching is best-effort; the lint result is unaffected
        return ProjectIndex(infos)

    # -- resolution -----------------------------------------------------
    def resolve_dotted(self, module: str, dotted: str) -> str | None:
        """A name as written in ``module`` -> project qualname, or None."""
        mod = self.modules.get(module)
        parts = dotted.split(".")
        candidates = [dotted]
        if mod is not None:
            target = mod.imports.get(parts[0])
            if target is not None:
                candidates.insert(0, ".".join([target, *parts[1:]]))
        candidates.append(f"{module}.{dotted}")
        for cand in candidates:
            if cand in self.classes or cand in self.functions:
                return cand
        return None

    def class_for(self, module: str, dotted: str | None) -> ClassInfo | None:
        if dotted is None:
            return None
        qual = self.resolve_dotted(module, dotted)
        if qual is None:
            # Same-named class anywhere in the project (quoted annotations
            # of not-imported-at-runtime types, e.g. ``"NIC"``).
            tail = dotted.split(".")[-1]
            matches = sorted(
                q for q, c in self.classes.items() if c.name == tail
            )
            return self.classes[matches[0]] if len(matches) == 1 else None
        return self.classes.get(qual)

    def method_of(self, cls: ClassInfo, name: str) -> FunctionInfo | None:
        """Method lookup through (single-inheritance) base classes."""
        seen: set[str] = set()
        current: ClassInfo | None = cls
        while current is not None and current.qualname not in seen:
            seen.add(current.qualname)
            fn = current.methods.get(name)
            if fn is not None:
                return fn
            current = next(
                (
                    base_info
                    for base in current.bases
                    if (base_info := self.class_for(current.module, base))
                    is not None
                ),
                None,
            )
        return None

    def attr_type(self, cls: ClassInfo, attr: str) -> ClassInfo | None:
        dotted = cls.attr_types.get(attr)
        if dotted is None:
            return None
        return self.class_for(cls.module, dotted)

    # -- expression typing ---------------------------------------------
    def type_of_expr(
        self,
        node: ast.expr,
        *,
        module: str,
        enclosing: ClassInfo | None,
        env: TypeEnv,
    ) -> ClassInfo | None:
        """Best-effort static type of an expression (None = unknown)."""
        if isinstance(node, ast.Name):
            if node.id == "self" and enclosing is not None:
                return enclosing
            local = env.types.get(node.id)
            if local is not None:
                return self.classes.get(local)
            return None
        if isinstance(node, ast.Attribute):
            base = self.type_of_expr(
                node.value, module=module, enclosing=enclosing, env=env
            )
            if base is not None:
                return self.attr_type(base, node.attr)
            # module-qualified class reference: repro.net.link.Link
            dotted = _dotted(node)
            if dotted is not None:
                qual = self.resolve_dotted(module, dotted)
                if qual is not None:
                    return self.classes.get(qual)
            return None
        if isinstance(node, ast.Call):
            fn = self.resolve_call(
                node, module=module, enclosing=enclosing, env=env
            )
            if fn is None:
                callee = _dotted(node.func)
                if callee is not None:
                    qual = self.resolve_dotted(module, callee)
                    if qual is not None and qual in self.classes:
                        return self.classes[qual]
                return None
            if fn.name == "__init__" and fn.cls is not None:
                return self.classes.get(fn.cls)
            return self.class_for(fn.module, fn.return_annotation)
        return None

    def resolve_call(
        self,
        node: ast.Call,
        *,
        module: str,
        enclosing: ClassInfo | None,
        env: TypeEnv,
    ) -> FunctionInfo | None:
        """The project function a call lands in, or None."""
        func = node.func
        if isinstance(func, ast.Name):
            qual = self.resolve_dotted(module, func.id)
            if qual is None:
                return None
            if qual in self.classes:
                cls = self.classes[qual]
                return self.method_of(cls, "__init__")
            return self.functions.get(qual)
        if isinstance(func, ast.Attribute):
            owner = self.type_of_expr(
                func.value, module=module, enclosing=enclosing, env=env
            )
            if owner is not None:
                return self.method_of(owner, func.attr)
            dotted = _dotted(func)
            if dotted is not None:
                qual = self.resolve_dotted(module, dotted)
                if qual is not None:
                    if qual in self.classes:
                        return self.method_of(self.classes[qual], "__init__")
                    return self.functions.get(qual)
        return None

    def resolve_function_reference(
        self,
        node: ast.expr,
        *,
        module: str,
        enclosing: ClassInfo | None,
        env: TypeEnv,
    ) -> FunctionInfo | None:
        """A bare function/method reference (not a call), or None.

        Handles ``self._finish``, cached-bound-method aliases
        (``self._finish_cb``), plain module functions, and
        ``obj.method`` on a statically-typed object.
        """
        if isinstance(node, ast.Name):
            qual = self.resolve_dotted(module, node.id)
            if qual is not None and qual in self.functions:
                return self.functions[qual]
            return None
        if isinstance(node, ast.Attribute):
            owner = self.type_of_expr(
                node.value, module=module, enclosing=enclosing, env=env
            )
            if owner is None:
                return None
            alias = owner.method_aliases.get(node.attr)
            name = alias if alias is not None else node.attr
            return self.method_of(owner, name)
        return None

    # -- local type environments ---------------------------------------
    def env_for_function(self, fn: FunctionInfo) -> TypeEnv:
        """Seed a type env from parameters, then one forward pass.

        Assignments are folded in statement order; branches are not
        merged (last write wins) — sufficient for the resolution the
        checkers need, silent where it is not.
        """
        env = TypeEnv()
        enclosing = self.classes.get(fn.cls) if fn.cls is not None else None
        for param in fn.params:
            if param.annotation is None:
                continue
            cls = self.class_for(fn.module, param.annotation)
            if cls is not None:
                env.types[param.name] = cls.qualname
        for stmt in ast.walk(fn.node):
            if isinstance(stmt, ast.Assign) and len(stmt.targets) == 1:
                target = stmt.targets[0]
                if isinstance(target, ast.Name):
                    inferred = self.type_of_expr(
                        stmt.value, module=fn.module, enclosing=enclosing, env=env
                    )
                    if inferred is not None:
                        env.types[target.id] = inferred.qualname
            elif isinstance(stmt, ast.AnnAssign) and isinstance(
                stmt.target, ast.Name
            ):
                cls = self.class_for(fn.module, annotation_to_dotted(stmt.annotation))
                if cls is not None:
                    env.types[stmt.target.id] = cls.qualname
        return env


# ---------------------------------------------------------------------------
# the call graph
# ---------------------------------------------------------------------------

@dataclass
class ScheduleSite:
    """One ``sim.schedule(...)`` / ``schedule_at(...)`` call site.

    ``kind`` is ``"schedule"`` for a named ``schedule*`` method call and
    ``"heappush"`` for the hot-path inlined form
    (``heappush(heap, (time, seq, callback, args))``).  For heappush
    sites ``delay`` is the relative part of the time expression when the
    push uses the canonical ``now + X`` shape, else None (absolute or
    opaque time).
    """

    caller: str  # qualname of the function containing the call
    node: ast.Call
    delay: ast.expr | None  # first argument (delay / absolute time)
    callback: ast.expr | None
    target: str | None  # resolved callback qualname, None if opaque
    kind: str = "schedule"


def _is_heappush(func: ast.expr) -> bool:
    """``heappush(...)`` / ``heapq.heappush(...)`` call heads."""
    if isinstance(func, ast.Name):
        return func.id == "heappush"
    return isinstance(func, ast.Attribute) and func.attr == "heappush"


def _is_now_expr(node: ast.expr) -> bool:
    """Expressions spelling the current simulated time."""
    if isinstance(node, ast.Attribute) and node.attr == "now":
        return True
    return isinstance(node, ast.Name) and node.id == "now"


def _heappush_delay(time_expr: ast.expr) -> ast.expr | None:
    """The relative delay of an inlined push, or None if absolute.

    Recognises the ``sim.now + delay`` / ``now + delay`` shape every
    inlined ``schedule_anon`` in the repo uses; anything else is an
    absolute timestamp whose distance from now is statically unknown.
    """
    if isinstance(time_expr, ast.BinOp) and isinstance(time_expr.op, ast.Add):
        if _is_now_expr(time_expr.left):
            return time_expr.right
        if _is_now_expr(time_expr.right):
            return time_expr.left
    return None


class CallGraph:
    """Call/reference/schedule edges over a :class:`ProjectIndex`."""

    def __init__(self, index: ProjectIndex) -> None:
        self.index = index
        #: Call, reference, structural-dispatch, wired-callback and
        #: schedule edges alike: reachability does not care which.
        self.edges: dict[str, set[str]] = {}
        #: (class qualname, attribute) -> functions some other code
        #: wired into that callback attribute.
        self.wirings: dict[tuple[str, str], set[str]] = {}
        self.schedule_sites: list[ScheduleSite] = []
        self.seeds: set[str] = set()
        #: method qualname -> {param name: (sink class qualname, attr)}
        #: for registration helpers (``def add(self, cb): self.cbs.append(cb)``).
        self._param_sinks: dict[str, dict[str, tuple[str, str]]] = {}
        self._build()

    # -- construction ---------------------------------------------------
    def _build(self) -> None:
        functions = sorted(self.index.functions.values(), key=lambda f: f.qualname)
        for fn in functions:
            self._collect_param_sinks(fn)
        for fn in functions:
            self._collect_wirings(fn)
        for fn in functions:
            self._scan_function(fn)

    def _add_edge(self, caller: str, callee: str) -> None:
        self.edges.setdefault(caller, set()).add(callee)

    # -- callback-wiring escape analysis --------------------------------
    def _sink_of_target(
        self, fn: FunctionInfo, target: ast.expr
    ) -> tuple[str, str] | None:
        """``self.attr`` / ``self.other.attr`` store target -> (class, attr)."""
        if not (isinstance(target, ast.Attribute) and fn.cls is not None):
            return None
        base = target.value
        if isinstance(base, ast.Name) and base.id == "self":
            return (fn.cls, target.attr)
        if (
            isinstance(base, ast.Attribute)
            and isinstance(base.value, ast.Name)
            and base.value.id == "self"
        ):
            owner = self.index.classes.get(fn.cls)
            hop = self.index.attr_type(owner, base.attr) if owner else None
            if hop is not None:
                return (hop.qualname, target.attr)
        return None

    def _collect_param_sinks(self, fn: FunctionInfo) -> None:
        """Record registration helpers: a parameter flowing into a
        ``self``-rooted attribute (``self.listeners.append(cb)`` /
        ``self.cb = cb``) makes the method a wiring point — any function
        reference passed to it at a call site lands in that attribute.
        """
        if fn.cls is None:
            return
        params = {p.name for p in fn.call_params}
        sinks: dict[str, tuple[str, str]] = {}
        for stmt in ast.walk(fn.node):
            if isinstance(stmt, ast.Assign):
                if not (
                    isinstance(stmt.value, ast.Name) and stmt.value.id in params
                ):
                    continue
                for target in stmt.targets:
                    sink = self._sink_of_target(fn, target)
                    if sink is not None:
                        sinks[stmt.value.id] = sink
            elif (
                isinstance(stmt, ast.Call)
                and isinstance(stmt.func, ast.Attribute)
                and stmt.func.attr in ("append", "add")
                and len(stmt.args) == 1
                and isinstance(stmt.args[0], ast.Name)
                and stmt.args[0].id in params
            ):
                sink = self._sink_of_target(fn, stmt.func.value)
                if sink is not None:
                    sinks[stmt.args[0].id] = sink
        if sinks:
            self._param_sinks[fn.qualname] = sinks

    def _record_wiring(
        self,
        fn: FunctionInfo,
        sink: tuple[str, str],
        value: ast.expr,
        enclosing: ClassInfo | None,
        env: TypeEnv,
    ) -> None:
        ref = self.index.resolve_function_reference(
            value, module=fn.module, enclosing=enclosing, env=env
        )
        if ref is None and isinstance(value, ast.Call):
            # ``link.on_depart = self._make_hook(port)``: the factory's
            # closure is the callback; its calls live in the factory's
            # body (nested defs are walked with it), so wiring the
            # factory itself keeps reachability sound.
            ref = self.index.resolve_call(
                value, module=fn.module, enclosing=enclosing, env=env
            )
            if ref is not None and ref.name == "__init__":
                ref = None  # plain object construction, not a callback factory
        if ref is not None:
            self.wirings.setdefault(sink, set()).add(ref.qualname)

    def _collect_wirings(self, fn: FunctionInfo) -> None:
        """Record every function escaping into a callback attribute.

        Three shapes: a direct store (``nic.endpoint = self._on_message``),
        a container registration (``nic.listeners.append(self._retry)``),
        and a call to a registration helper found by
        :meth:`_collect_param_sinks` (``target.add_rate_listener(cb)``).
        """
        index = self.index
        enclosing = index.classes.get(fn.cls) if fn.cls is not None else None
        env = index.env_for_function(fn)

        def sink_for(target: ast.expr) -> tuple[str, str] | None:
            if not isinstance(target, ast.Attribute):
                return None
            owner = index.type_of_expr(
                target.value, module=fn.module, enclosing=enclosing, env=env
            )
            if owner is None:
                return None
            return (owner.qualname, target.attr)

        for stmt in ast.walk(fn.node):
            if isinstance(stmt, ast.Assign):
                for target in stmt.targets:
                    sink = sink_for(target)
                    if sink is not None:
                        self._record_wiring(fn, sink, stmt.value, enclosing, env)
            elif isinstance(stmt, ast.Call):
                func = stmt.func
                if (
                    isinstance(func, ast.Attribute)
                    and func.attr in ("append", "add")
                    and len(stmt.args) == 1
                ):
                    sink = sink_for(func.value)
                    if sink is not None:
                        self._record_wiring(
                            fn, sink, stmt.args[0], enclosing, env
                        )
                    continue
                resolved = index.resolve_call(
                    stmt, module=fn.module, enclosing=enclosing, env=env
                )
                if resolved is None:
                    continue
                sinks = self._param_sinks.get(resolved.qualname)
                if not sinks:
                    continue
                callee_params = resolved.call_params
                for i, arg in enumerate(stmt.args):
                    if i < len(callee_params) and callee_params[i].name in sinks:
                        self._record_wiring(
                            fn, sinks[callee_params[i].name], arg, enclosing, env
                        )
                for kw in stmt.keywords:
                    if kw.arg is not None and kw.arg in sinks:
                        self._record_wiring(
                            fn, sinks[kw.arg], kw.value, enclosing, env
                        )

    def _scan_function(self, fn: FunctionInfo) -> None:
        index = self.index
        enclosing = index.classes.get(fn.cls) if fn.cls is not None else None
        env = index.env_for_function(fn)
        nested = {
            stmt.name
            for stmt in ast.walk(fn.node)
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef))
            and stmt is not fn.node
        }
        # Local aliases and loop variables bound to wired callback
        # attributes (``on_depart = self.on_depart`` / ``for cb in
        # self.listeners``): a call through them dispatches the wiring.
        wired_aliases: dict[str, tuple[str, str]] = {}
        if fn.cls is not None and self.wirings:
            for stmt in ast.walk(fn.node):
                if isinstance(stmt, ast.Assign) and len(stmt.targets) == 1:
                    tgt, val = stmt.targets[0], stmt.value
                    if isinstance(tgt, ast.Name) and isinstance(val, ast.Attribute):
                        sink = self._self_attr_sink(fn, val)
                        if sink is not None and sink in self.wirings:
                            wired_aliases[tgt.id] = sink
                elif isinstance(stmt, (ast.For, ast.AsyncFor)):
                    if isinstance(stmt.target, ast.Name) and isinstance(
                        stmt.iter, ast.Attribute
                    ):
                        sink = self._self_attr_sink(fn, stmt.iter)
                        if sink is not None and sink in self.wirings:
                            wired_aliases[stmt.target.id] = sink
        for node in ast.walk(fn.node):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            if isinstance(func, ast.Name) and func.id in wired_aliases:
                self._wired_edges(fn, wired_aliases[func.id])
            elif isinstance(func, ast.Attribute):
                sink = self._self_attr_sink(fn, func)
                if sink is not None and sink in self.wirings:
                    self._wired_edges(fn, sink)
            if _is_heappush(func):
                self._record_heappush(fn, node, enclosing, env)
                continue
            is_schedule = (
                isinstance(func, ast.Attribute) and func.attr in SCHEDULE_METHODS
            )
            if is_schedule:
                self._record_schedule(fn, node, enclosing, env, nested)
            resolved = index.resolve_call(
                node, module=fn.module, enclosing=enclosing, env=env
            )
            if resolved is not None:
                self._add_edge(fn.qualname, resolved.qualname)
                owner = (
                    index.classes.get(resolved.cls)
                    if resolved.cls is not None
                    else None
                )
                if owner is not None and owner.is_protocol:
                    # The call resolved to a Protocol *stub*: fan out to
                    # the concrete implementations, or structural typing
                    # would hide them from dispatch reachability.
                    self._implementer_edges(fn, owner, resolved.name)
            elif isinstance(func, ast.Attribute):
                self._protocol_edges(fn, func, enclosing, env)
            if is_schedule:
                # Its callback argument is engine-mediated, recorded as
                # a ``sched`` edge above — not a synchronous escape.
                continue
            # Function references escaping as arguments (callbacks wired
            # through plain calls: ``on_done=self._finish``).
            for arg in [*node.args, *[kw.value for kw in node.keywords]]:
                if isinstance(arg, (ast.Attribute, ast.Name)) and not (
                    isinstance(arg, ast.Name) and arg.id in nested
                ):
                    ref = index.resolve_function_reference(
                        arg, module=fn.module, enclosing=enclosing, env=env
                    )
                    if ref is not None:
                        self._add_edge(fn.qualname, ref.qualname)

    def _self_attr_sink(
        self, fn: FunctionInfo, node: ast.Attribute
    ) -> tuple[str, str] | None:
        """``self.attr`` -> (own class, attr), for wiring lookups."""
        if (
            fn.cls is not None
            and isinstance(node.value, ast.Name)
            and node.value.id == "self"
        ):
            return (fn.cls, node.attr)
        return None

    def _wired_edges(self, fn: FunctionInfo, sink: tuple[str, str]) -> None:
        for target in sorted(self.wirings.get(sink, ())):
            self._add_edge(fn.qualname, target)

    def _record_heappush(
        self,
        fn: FunctionInfo,
        node: ast.Call,
        enclosing: ClassInfo | None,
        env: TypeEnv,
    ) -> None:
        """An inlined ``heappush(heap, (time, seq, callback, args))``.

        The hot paths (``Link.send``, ``Flow.pump``) bypass the
        ``schedule*`` methods and push event tuples directly; without
        this, their callbacks (``_finish``, ``_deliver``) look dead to
        every dispatch-reachability consumer.
        """
        if len(node.args) < 2 or not isinstance(node.args[1], ast.Tuple):
            return
        elts = node.args[1].elts
        if len(elts) < 3:
            return
        callback = elts[2]
        target: str | None = None
        ref = self.index.resolve_function_reference(
            callback, module=fn.module, enclosing=enclosing, env=env
        )
        if ref is not None:
            target = ref.qualname
            self.seeds.add(target)
            self._add_edge(fn.qualname, target)
        self.schedule_sites.append(
            ScheduleSite(
                caller=fn.qualname,
                node=node,
                delay=_heappush_delay(elts[0]),
                callback=callback,
                target=target,
                kind="heappush",
            )
        )

    def _implementer_edges(
        self, fn: FunctionInfo, protocol: ClassInfo, method: str
    ) -> None:
        """Fan out from a Protocol method stub to its implementations."""
        for cls in self.index.classes.values():
            if cls.is_protocol or method not in cls.methods:
                continue
            if all(m in cls.methods for m in protocol.methods):
                self._add_edge(fn.qualname, cls.methods[method].qualname)

    def _protocol_edges(
        self,
        fn: FunctionInfo,
        func: ast.Attribute,
        enclosing: ClassInfo | None,
        env: TypeEnv,
    ) -> None:
        """Duck-dispatch through Protocol-typed receivers.

        ``link.dst.receive(...)`` with ``dst: Device`` (a Protocol) may
        land in any class implementing ``receive`` — add an edge to each
        so dispatch-reachability survives structural typing.
        """
        index = self.index
        owner = index.type_of_expr(
            func.value, module=fn.module, enclosing=enclosing, env=env
        )
        if owner is None or not owner.is_protocol:
            return
        if func.attr not in owner.methods:
            return
        self._implementer_edges(fn, owner, func.attr)

    def _record_schedule(
        self,
        fn: FunctionInfo,
        node: ast.Call,
        enclosing: ClassInfo | None,
        env: TypeEnv,
        nested: set[str],
    ) -> None:
        args = node.args
        delay = args[0] if args else None
        callback = args[1] if len(args) > 1 else None
        target: str | None = None
        if callback is not None:
            ref = self.index.resolve_function_reference(
                callback, module=fn.module, enclosing=enclosing, env=env
            )
            if ref is not None:
                target = ref.qualname
                self.seeds.add(target)
                self._add_edge(fn.qualname, target)
            elif isinstance(callback, ast.Lambda):
                # The lambda body runs at dispatch: its call targets are
                # callbacks even though the enclosing function is not.
                self._seed_calls_within(callback.body, fn, enclosing, env)
            elif isinstance(callback, ast.Name) and callback.id in nested:
                for stmt in ast.walk(fn.node):
                    if (
                        isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef))
                        and stmt.name == callback.id
                    ):
                        self._seed_calls_within(stmt, fn, enclosing, env)
                        break
        # Function references among the *callback arguments* (``schedule(
        # d, cb, on_done)``) dispatch with the callback: engine-mediated.
        for extra in [*args[2:], *[kw.value for kw in node.keywords]]:
            if isinstance(extra, (ast.Attribute, ast.Name)):
                ref = self.index.resolve_function_reference(
                    extra, module=fn.module, enclosing=enclosing, env=env
                )
                if ref is not None:
                    self.seeds.add(ref.qualname)
                    self._add_edge(fn.qualname, ref.qualname)
        self.schedule_sites.append(
            ScheduleSite(
                caller=fn.qualname, node=node, delay=delay,
                callback=callback, target=target,
            )
        )

    def _seed_calls_within(
        self,
        body: ast.AST,
        fn: FunctionInfo,
        enclosing: ClassInfo | None,
        env: TypeEnv,
    ) -> None:
        for node in ast.walk(body):
            if isinstance(node, ast.Call):
                resolved = self.index.resolve_call(
                    node, module=fn.module, enclosing=enclosing, env=env
                )
                if resolved is not None:
                    self.seeds.add(resolved.qualname)
                    self._add_edge(fn.qualname, resolved.qualname)

    # -- queries --------------------------------------------------------
    def reachable_from_dispatch(self) -> frozenset[str]:
        """Functions the event loop can reach through scheduled callbacks."""
        seen: set[str] = set()
        stack = sorted(self.seeds)
        while stack:
            qual = stack.pop()
            if qual in seen:
                continue
            seen.add(qual)
            stack.extend(sorted(self.edges.get(qual, set()) - seen))
        return frozenset(seen)
