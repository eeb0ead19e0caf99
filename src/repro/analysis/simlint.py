"""simlint — AST-based determinism linter for the simulation packages.

The DES core guarantees bit-identical replay (golden dispatch traces,
``workers=N`` == ``workers=1`` sweeps) only as long as every module
upholds a handful of invariants that nothing in CPython enforces.  This
linter turns them into checkable rules, using only :mod:`ast`:

``SIM001``
    No wall-clock access in simulation packages: importing :mod:`time`
    or :mod:`datetime` there means some code path can observe host time,
    which is never reproducible.  Wall-clock *measurement* belongs in
    :mod:`repro.profiling` / :mod:`repro.parallel`, which are exempt.
``SIM002``
    All randomness flows through :mod:`repro.sim.rng`
    (:func:`~repro.sim.rng.make_rng` / :func:`~repro.sim.rng.spawn_rngs`).
    Importing :mod:`random` or calling ``np.random.*`` constructors
    anywhere else creates an unseeded (or separately-seeded) stream that
    breaks cross-component stream independence.
``SIM003``
    No iteration over ``set`` values or ``dict.keys()`` calls in
    simulation modules or any other package with dispatch-reachable
    code (:data:`repro.analysis.manifest.ITERATION_PACKAGES`): set order
    is salted per process, so iterating one inside an event callback
    reorders scheduling — or a float sum — between runs.  Iterate a
    ``sorted(...)`` snapshot instead (the NIC backlogged-flow pump is
    the reference pattern).
``SIM004``
    Classes listed in :data:`repro.analysis.manifest.SLOTS_MANIFEST`
    (one instance per packet/event/flow/transaction) must declare
    ``__slots__`` — directly or via ``@dataclass(slots=True)``.
``SIM005``
    No bare ``except:`` and no exception handler whose body is only
    ``pass``/``...`` in simulation packages: a swallowed exception in a
    dispatch path leaves the model silently corrupted mid-run.

Files map to module names from their ``src/`` path; files outside
``src/`` (lint-rule fixtures, scratch scripts) can opt in with a
``# simlint: package=repro.net.foo`` directive near the top.  Individual
lines are suppressed with ``# simlint: ignore[SIM001]`` (comma-list or
``*`` for all rules).
"""

from __future__ import annotations

import ast
import io
import json
import re
import tokenize
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Iterable, Iterator

from repro.analysis.manifest import (
    ITERATION_PACKAGES,
    RNG_EXEMPT_MODULES,
    RNG_EXTRA_PACKAGES,
    SIM_PACKAGES,
    SLOTS_MANIFEST,
)

__all__ = [
    "RULES",
    "Violation",
    "comment_lines",
    "format_violations",
    "lint_file",
    "lint_paths",
    "make_emitter",
    "module_name_of",
    "suppressed_rules",
]

#: Rule code -> one-line description (the ``repro lint`` help text).
RULES: dict[str, str] = {
    "SIM001": "no wall-clock (time/datetime) access in simulation packages",
    "SIM002": "randomness must flow through repro.sim.rng, not random/np.random",
    "SIM003": (
        "no iteration over sets or dict.keys() in simulation modules or "
        "dispatch-reachable experiment/ml/profiling code"
    ),
    "SIM004": "hot-path classes in the manifest must declare __slots__",
    "SIM005": "no bare except or swallowed exceptions in simulation packages",
    "SIM999": "file does not parse",
}

_PACKAGE_DIRECTIVE = re.compile(r"#\s*simlint:\s*package=([\w.]+)")
_IGNORE_DIRECTIVE = re.compile(r"#\s*simlint:\s*ignore\[([\w\s,*]+)\]")

_WALLCLOCK_MODULES = ("time", "datetime")
_NUMPY_ALIASES = ("np", "numpy")


@dataclass(frozen=True)
class Violation:
    """One lint finding."""

    rule: str
    path: str
    line: int
    col: int
    message: str

    def format(self) -> str:
        return f"{self.path}:{self.line}:{self.col}: {self.rule} {self.message}"

    def as_dict(self) -> dict:
        return {
            "rule": self.rule,
            "path": self.path,
            "line": self.line,
            "col": self.col,
            "message": self.message,
        }


def _in_packages(module: str, packages: Iterable[str]) -> bool:
    return any(module == p or module.startswith(p + ".") for p in packages)


def comment_lines(source: str) -> dict[int, str]:
    """Line number -> comment text, from the tokenizer.

    Directives are only honoured inside *actual comments* — a file that
    merely mentions ``# simlint: package=...`` in a docstring or string
    literal must not be re-attributed.  Returns an empty map when the
    file cannot be tokenized (the parse error is reported separately).
    """
    out: dict[int, str] = {}
    try:
        for tok in tokenize.generate_tokens(io.StringIO(source).readline):
            if tok.type == tokenize.COMMENT:
                out[tok.start[0]] = tok.string
    except (tokenize.TokenError, IndentationError, SyntaxError):
        pass  # keep the comments collected before the bad token
    return out


def _first_code_line(source: str) -> int:
    """Line of the first non-docstring statement (``sys.maxsize`` if none).

    A ``# simlint: package=`` directive is a *file header* declaration:
    it is honoured only above this line, so a stray mention later in the
    file (scratch code, a commented-out experiment) cannot silently put
    the whole file in lint scope.
    """
    try:
        tree = ast.parse(source)
    except SyntaxError:
        return 1 << 62
    body = tree.body
    if (
        body
        and isinstance(body[0], ast.Expr)
        and isinstance(body[0].value, ast.Constant)
        and isinstance(body[0].value.value, str)
    ):
        body = body[1:]
    return body[0].lineno if body else 1 << 62


def module_name_of(path: Path, source: str) -> str | None:
    """The dotted repro module a file belongs to, or None.

    Resolution order: a ``# simlint: package=...`` directive in a
    comment above the first (non-docstring) statement wins (fixtures),
    then the ``.../src/repro/...`` path shape.
    """
    first_code = _first_code_line(source)
    for lineno, comment in sorted(comment_lines(source).items()):
        if lineno >= first_code:
            break
        m = _PACKAGE_DIRECTIVE.search(comment)
        if m:
            return m.group(1)
    parts = path.resolve().parts
    for anchor in range(len(parts) - 1, -1, -1):
        if parts[anchor] == "src" and anchor + 1 < len(parts):
            mod = ".".join(parts[anchor + 1 :])
            if mod.endswith(".py"):
                mod = mod[: -len(".py")]
            if mod.endswith(".__init__"):
                mod = mod[: -len(".__init__")]
            if mod.startswith("repro"):
                return mod
    return None


def suppressed_rules(source: str) -> dict[int, frozenset[str]]:
    """Line number -> rules suppressed on that line (comment tokens only)."""
    out: dict[int, frozenset[str]] = {}
    for lineno, comment in comment_lines(source).items():
        m = _IGNORE_DIRECTIVE.search(comment)
        if m:
            rules = frozenset(r.strip() for r in m.group(1).split(",") if r.strip())
            out[lineno] = rules
    return out


def suppression_lines(node: ast.AST) -> range:
    """Physical lines on which an ``ignore[...]`` directive covers ``node``.

    A violation on a multi-line statement may carry its directive on any
    continuation line; a flagged class/function accepts it on a
    decorator line or the header, but *not* deep inside the body (that
    would let one directive mute a whole class).
    """
    lineno = getattr(node, "lineno", 0)
    if isinstance(node, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
        start = min(
            (deco.lineno for deco in node.decorator_list), default=lineno
        )
        end = node.body[0].lineno - 1 if node.body else lineno
        return range(start, max(end, lineno) + 1)
    end_lineno = getattr(node, "end_lineno", None) or lineno
    return range(lineno, end_lineno + 1)


#: Signature of the per-rule emit callbacks.
Emitter = Callable[[str, ast.AST, str], None]


def _function_directive_spans(
    source: str, suppressed: dict[int, frozenset[str]]
) -> list[tuple[int, int, frozenset[str]]]:
    """``(first_line, last_line, rules)`` spans from function headers.

    A directive on a function's decorator line, its ``def`` line, any
    continuation line of a multi-line signature, or a comment line
    directly under the signature (before the first body statement)
    scopes to the whole function body — the decorator/signature *is*
    the function, not one physical line.  Deeper inside the body a
    directive only covers its own statement.  Classes stay
    line-scoped: one directive must not mute a whole class body
    (``suppression_lines`` already accepts a class-header directive
    for findings on the class itself).
    """
    if not suppressed:
        return []
    try:
        tree = ast.parse(source)
    except SyntaxError:
        return []
    spans: list[tuple[int, int, frozenset[str]]] = []
    for node in ast.walk(tree):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        start = min(
            (deco.lineno for deco in node.decorator_list), default=node.lineno
        )
        header_end = node.body[0].lineno - 1 if node.body else node.lineno
        header_end = max(header_end, node.lineno)
        rules: frozenset[str] = frozenset()
        for line in range(start, header_end + 1):
            rules = rules | suppressed.get(line, frozenset())
        if rules:
            end = getattr(node, "end_lineno", None) or header_end
            spans.append((start, end, rules))
    return spans


def make_emitter(
    source: str, display: str, violations: list[Violation]
) -> Emitter:
    """Build an emit callback honouring ``ignore[...]`` directives."""
    suppressed = suppressed_rules(source)
    func_spans = _function_directive_spans(source, suppressed)

    def emit(rule: str, node: ast.AST, message: str) -> None:
        line = getattr(node, "lineno", 0)
        col = getattr(node, "col_offset", 0)
        for covered in suppression_lines(node):
            rules_here = suppressed.get(covered)
            if rules_here and (rule in rules_here or "*" in rules_here):
                return
        for span_start, span_end, rules_here in func_spans:
            if span_start <= line <= span_end and (
                rule in rules_here or "*" in rules_here
            ):
                return
        violations.append(Violation(rule, display, line, col, message))

    return emit


def _dotted(node: ast.expr) -> str | None:
    """``a.b.c`` attribute chains as a string; None for anything else."""
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None


# -- SIM001 / SIM002: imports and calls --------------------------------------

def _check_imports_and_calls(tree: ast.AST, module: str, emit: Emitter) -> None:
    sim_scope = _in_packages(module, SIM_PACKAGES)
    rng_scope = (
        _in_packages(module, SIM_PACKAGES + RNG_EXTRA_PACKAGES)
        and module not in RNG_EXEMPT_MODULES
    )
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                root = alias.name.split(".")[0]
                if sim_scope and root in _WALLCLOCK_MODULES:
                    emit(
                        "SIM001", node,
                        f"simulation module {module} imports {alias.name!r}; "
                        "use the simulated clock (Simulator.now), not wall time",
                    )
                if rng_scope and root == "random":
                    emit(
                        "SIM002", node,
                        f"{module} imports {alias.name!r}; derive randomness from "
                        "repro.sim.rng.make_rng/spawn_rngs instead",
                    )
        elif isinstance(node, ast.ImportFrom):
            root = (node.module or "").split(".")[0]
            if sim_scope and root in _WALLCLOCK_MODULES:
                emit(
                    "SIM001", node,
                    f"simulation module {module} imports from {node.module!r}; "
                    "use the simulated clock (Simulator.now), not wall time",
                )
            if rng_scope and root == "random":
                emit(
                    "SIM002", node,
                    f"{module} imports from {node.module!r}; derive randomness "
                    "from repro.sim.rng.make_rng/spawn_rngs instead",
                )
        elif isinstance(node, ast.Call):
            name = _dotted(node.func)
            if not name:
                continue
            if rng_scope and _is_numpy_random_call(name):
                emit(
                    "SIM002", node,
                    f"direct numpy.random call {name!r}; route it through "
                    "repro.sim.rng (make_rng/spawn_rngs)",
                )


def _is_numpy_random_call(dotted: str) -> bool:
    parts = dotted.split(".")
    return len(parts) >= 3 and parts[0] in _NUMPY_ALIASES and parts[1] == "random"


# -- SIM003: unordered iteration ---------------------------------------------

class _SetNames(ast.NodeVisitor):
    """Collects names/attributes assigned set-typed values in a module."""

    def __init__(self) -> None:
        self.names: set[str] = set()

    def _target_key(self, target: ast.expr) -> str | None:
        # Attributes are tracked only on ``self`` — matching bare attribute
        # names across unrelated objects produces false positives.
        if isinstance(target, ast.Name):
            return target.id
        if (
            isinstance(target, ast.Attribute)
            and isinstance(target.value, ast.Name)
            and target.value.id == "self"
        ):
            return f"self.{target.attr}"
        return None

    @staticmethod
    def _is_set_value(value: ast.expr | None) -> bool:
        if value is None:
            return False
        if isinstance(value, (ast.Set, ast.SetComp)):
            return True
        if isinstance(value, ast.Call) and isinstance(value.func, ast.Name):
            return value.func.id in ("set", "frozenset")
        return False

    @staticmethod
    def _is_set_annotation(annotation: ast.expr) -> bool:
        base = annotation.value if isinstance(annotation, ast.Subscript) else annotation
        if isinstance(base, ast.Name):
            return base.id in ("set", "frozenset", "Set", "FrozenSet", "AbstractSet")
        if isinstance(base, ast.Attribute):
            return base.attr in ("Set", "FrozenSet", "AbstractSet")
        return False

    def visit_Assign(self, node: ast.Assign) -> None:
        if self._is_set_value(node.value):
            for target in node.targets:
                key = self._target_key(target)
                if key:
                    self.names.add(key)
        self.generic_visit(node)

    def visit_AnnAssign(self, node: ast.AnnAssign) -> None:
        if self._is_set_value(node.value) or self._is_set_annotation(node.annotation):
            key = self._target_key(node.target)
            if key:
                self.names.add(key)
        self.generic_visit(node)


def _check_unordered_iteration(tree: ast.AST, emit: Emitter) -> None:
    collector = _SetNames()
    collector.visit(tree)
    set_names = collector.names

    def flag_iter(iter_node: ast.expr) -> None:
        if isinstance(iter_node, (ast.Set, ast.SetComp)):
            emit("SIM003", iter_node, "iterating a set literal; iterate sorted(...)")
            return
        if isinstance(iter_node, ast.Call):
            if isinstance(iter_node.func, ast.Name) and iter_node.func.id in (
                "set",
                "frozenset",
            ):
                emit(
                    "SIM003", iter_node,
                    "iterating a set(...) construction; iterate sorted(...)",
                )
            elif (
                isinstance(iter_node.func, ast.Attribute)
                and iter_node.func.attr == "keys"
                and not iter_node.args
            ):
                emit(
                    "SIM003", iter_node,
                    "iterating .keys(); iterate the dict (insertion order) or "
                    "sorted(...) when order must be id-stable",
                )
            return
        key: str | None = None
        if isinstance(iter_node, ast.Name):
            key = iter_node.id
        elif (
            isinstance(iter_node, ast.Attribute)
            and isinstance(iter_node.value, ast.Name)
            and iter_node.value.id == "self"
        ):
            key = f"self.{iter_node.attr}"
        if key is not None and key in set_names:
            emit(
                "SIM003", iter_node,
                f"iterating set-typed {key!r}; set order is salted per process — "
                "iterate sorted(...) instead",
            )

    for node in ast.walk(tree):
        if isinstance(node, (ast.For, ast.AsyncFor)):
            flag_iter(node.iter)
        elif isinstance(node, (ast.ListComp, ast.SetComp, ast.GeneratorExp, ast.DictComp)):
            for gen in node.generators:
                flag_iter(gen.iter)


# -- SIM004: __slots__ manifest ----------------------------------------------

def _class_declares_slots(node: ast.ClassDef) -> bool:
    for stmt in node.body:
        if isinstance(stmt, ast.Assign):
            for target in stmt.targets:
                if isinstance(target, ast.Name) and target.id == "__slots__":
                    return True
        elif isinstance(stmt, ast.AnnAssign):
            if isinstance(stmt.target, ast.Name) and stmt.target.id == "__slots__":
                return True
    for deco in node.decorator_list:
        if isinstance(deco, ast.Call):
            name = _dotted(deco.func)
            if name and name.split(".")[-1] == "dataclass":
                for kw in deco.keywords:
                    if (
                        kw.arg == "slots"
                        and isinstance(kw.value, ast.Constant)
                        and kw.value.value is True
                    ):
                        return True
    return False


def _check_slots_manifest(tree: ast.AST, module: str, emit: Emitter) -> None:
    required = SLOTS_MANIFEST.get(module)
    if not required:
        return
    classes = {
        node.name: node for node in ast.walk(tree) if isinstance(node, ast.ClassDef)
    }
    for name in required:
        node = classes.get(name)
        if node is None:
            emit(
                "SIM004", tree,
                f"manifest class {module}.{name} not found — update "
                "repro.analysis.manifest.SLOTS_MANIFEST if it moved",
            )
        elif not _class_declares_slots(node):
            emit(
                "SIM004", node,
                f"hot-path class {name} must declare __slots__ "
                "(directly or via @dataclass(slots=True))",
            )


# -- SIM005: exception hygiene -----------------------------------------------

def _check_exception_hygiene(tree: ast.AST, emit: Emitter) -> None:
    for node in ast.walk(tree):
        if not isinstance(node, ast.ExceptHandler):
            continue
        if node.type is None:
            emit(
                "SIM005", node,
                "bare except: in a simulation package; catch specific exceptions",
            )
        if all(
            isinstance(stmt, ast.Pass)
            or (
                isinstance(stmt, ast.Expr)
                and isinstance(stmt.value, ast.Constant)
                and stmt.value.value is Ellipsis
            )
            for stmt in node.body
        ):
            emit(
                "SIM005", node,
                "exception handler swallows errors (body is pass/...); a fault "
                "in a dispatch path must not silently corrupt the model",
            )


# -- driver -------------------------------------------------------------------

def lint_source(source: str, path: Path) -> list[Violation]:
    """Lint one file's source; returns findings (possibly empty)."""
    display = str(path)
    try:
        tree = ast.parse(source, filename=display)
    except SyntaxError as exc:
        return [
            Violation(
                "SIM999", display, exc.lineno or 0, exc.offset or 0,
                f"file does not parse: {exc.msg}",
            )
        ]
    module = module_name_of(path, source)
    if module is None:
        return []
    violations: list[Violation] = []
    emit = make_emitter(source, display, violations)

    _check_imports_and_calls(tree, module, emit)
    if _in_packages(module, ITERATION_PACKAGES):
        _check_unordered_iteration(tree, emit)
    if _in_packages(module, SIM_PACKAGES):
        _check_exception_hygiene(tree, emit)
    _check_slots_manifest(tree, module, emit)
    violations.sort(key=lambda v: (v.path, v.line, v.col, v.rule))
    return violations


def lint_file(path: Path) -> list[Violation]:
    return lint_source(path.read_text(), path)


def _iter_python_files(paths: Iterable[str | Path]) -> Iterator[Path]:
    """Every ``.py`` file under ``paths``.  A path that is neither a
    directory nor an existing ``.py`` file raises ``ValueError`` — a
    mistyped path must not read as a clean run."""
    for raw in paths:
        path = Path(raw)
        if path.is_dir():
            yield from sorted(
                p
                for p in path.rglob("*.py")
                if "__pycache__" not in p.parts
            )
        elif path.is_file() and path.suffix == ".py":
            yield path
        elif not path.exists():
            raise ValueError(f"no such file or directory: {raw}")
        else:
            raise ValueError(f"not a directory or .py file: {raw}")


def lint_paths(paths: Iterable[str | Path]) -> list[Violation]:
    """Lint every ``.py`` file under ``paths`` (files or directories)."""
    violations: list[Violation] = []
    for path in _iter_python_files(paths):
        violations.extend(lint_file(path))
    return violations


def format_violations(violations: list[Violation], *, fmt: str = "text") -> str:
    if fmt == "json":
        return json.dumps([v.as_dict() for v in violations], indent=2)
    if fmt == "github":
        # GitHub Actions workflow commands: each line becomes an
        # annotation on the offending file/line in the PR diff view.
        return "\n".join(
            f"::error file={v.path},line={v.line},col={v.col},"
            f"title={v.rule}::{v.message}"
            for v in violations
        )
    if not violations:
        return "simlint: no violations"
    lines = [v.format() for v in violations]
    lines.append(f"simlint: {len(violations)} violation(s)")
    return "\n".join(lines)
