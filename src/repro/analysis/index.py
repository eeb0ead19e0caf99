"""Project-wide symbol table for the whole-program linter.

The per-file rules of :mod:`repro.analysis.simlint` are syntactic; the
units pass (:mod:`repro.analysis.units`) needs to reason *across*
modules: which function a call lands in, what class is ``nic.link``,
which unit a parameter of another module declares.  This module builds
that substrate with nothing but :mod:`ast`:

* :class:`ProjectIndex` — every module's imports, classes (with
  attribute types collected from ``__init__`` assignments and
  annotations), functions, parameter/return units;
* :class:`TypeEnv` / :func:`ProjectIndex.type_of_expr` — a lightweight
  forward type inference for locals (``nic = self.nic`` ⇒ ``NIC``),
  enough to resolve method calls;
* :meth:`ProjectIndex.resolve_call` — the project function a call
  expression lands in.

Everything here is best-effort static resolution: an unresolvable call
resolves to ``None``, and so does an unresolvable type.  The checker
built on top only flags *known-known* conflicts, so partial knowledge
degrades to silence, not noise.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from pathlib import Path

from repro.analysis.simlint import module_name_of
from repro.core.units import ALIAS_UNITS, suffix_unit

__all__ = [
    "ClassInfo",
    "FunctionInfo",
    "ModuleInfo",
    "ParamInfo",
    "ProjectIndex",
    "TypeEnv",
    "annotation_to_dotted",
    "annotation_to_unit",
]

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
    """One project class: methods and attribute types/units."""

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
    is_dataclass: bool = False


@dataclass
class ModuleInfo:
    """Per-file symbols: parsed once, linked on demand."""

    name: str
    path: str
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
    """Record ``self.x`` types/units from all methods."""
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


def _class_info(node: ast.ClassDef, module: str) -> ClassInfo:
    bases = [b for b in (_dotted(base) for base in node.bases) if b is not None]
    info = ClassInfo(
        qualname=f"{module}.{node.name}",
        module=module,
        name=node.name,
        bases=bases,
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
        name=module, path=str(path), source=source,
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

    # -- local type environments ---------------------------------------
    def env_for_function(self, fn: FunctionInfo) -> TypeEnv:
        """Seed a type env from parameters, then one forward pass.

        Assignments are folded in statement order; branches are not
        merged (last write wins) — sufficient for the resolution the
        units checker needs, silent where it is not.
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
