"""Units-of-measure dataflow checker (rules SIM101–SIM104).

The simulator moves quantities between modules as bare numbers; the
classic reproduction bug is mixing their units — a DCQCN rate update in
Gbps meeting link serialisation in bytes/ns, a CLI duration in ms fed
to an engine that counts ns.  This pass assigns each expression a unit
from three sources, in priority order:

1. signature annotations using the :mod:`repro.core.units` aliases
   (collected into the :class:`~repro.analysis.index.ProjectIndex`);
2. the repo's name-suffix convention (``_ns``, ``_bytes``, ``_gbps``,
   ...) for unannotated locals, attributes, and function names;
3. a small algebra over arithmetic: ``bytes / ns -> bytes_per_ns``,
   ``bytes / bytes_per_ns -> ns``, ``bytes_per_ns * ns -> bytes``,
   ``x / x -> ratio``, with the conversion constants of
   :mod:`repro.sim.units` (``US``, ``MS``, ``KIB``, ``GBPS``...)
   rewriting units on multiplication/division.

Only **known-known conflicts** are reported: an unknown unit never
flags, so partial inference degrades to silence rather than noise.

Rules
-----
SIM101
    Unit-mixing arithmetic: ``+``/``-``/``%``/comparison between two
    *different* known units (``delay_ns + delay_ms``), assigning an
    expression of one known unit to a name whose suffix declares
    another, multiplying a quantity by a conversion factor that expects
    a different source unit (``duration_ms * US``), or ``max``/``min``
    over mixed units.
SIM102
    Call-argument unit mismatch: passing a known unit into a parameter
    annotated (or suffix-named) with a different one.
SIM103
    Return unit mismatch: returning a known unit from a function whose
    annotation or name-suffix declares a different one.
SIM104
    Unconverted rate↔latency math: a ``gbps`` quantity meeting bytes or
    time in ``*``/``/`` without going through ``GBPS``/
    ``gbps_to_bytes_per_ns`` first (``size / rate_gbps`` is bits-vs-
    bytes wrong by 8 and seconds-vs-ns wrong by 1e9).

Modules in :data:`repro.analysis.manifest.UNITS_EXEMPT_MODULES` (the
conversion helpers themselves) are exempt from SIM101/SIM104.
"""

from __future__ import annotations

import ast

from repro.analysis.index import (
    ClassInfo,
    FunctionInfo,
    ParamInfo,
    ProjectIndex,
    annotation_to_unit,
)
from repro.analysis.manifest import UNITS_EXEMPT_MODULES
from repro.analysis.simlint import Emitter, Violation, make_emitter
from repro.core.units import CONVERSION_FACTORS, DIMENSIONLESS, suffix_unit

__all__ = ["UNIT_RULES", "check_units"]

UNIT_RULES: dict[str, str] = {
    "SIM101": "unit-mixing arithmetic between different known units",
    "SIM102": "call argument unit does not match the parameter's unit",
    "SIM103": "return value unit does not match the declared return unit",
    "SIM104": "unconverted rate<->latency math (gbps meets bytes/time)",
}

#: Builtins transparent to units: unit(f(x)) == unit(x).
_PRESERVING_CALLS = frozenset({"int", "float", "abs", "round"})
#: Builtins whose result joins their arguments' units.
_JOINING_CALLS = frozenset({"max", "min"})
#: Units SIM104 guards against meeting ``gbps`` raw.
_RATE_CLASH = frozenset({"bytes", "ns", "us", "ms", "s"})


def _scoped(module: str) -> bool:
    # Unit conventions hold project-wide, not only in the packages that
    # run inside the simulated clock: the classic ms-vs-ns bug lives in
    # experiment drivers and the CLI.
    return module == "repro" or module.startswith("repro.")


class _FunctionUnits:
    """One intraprocedural forward pass over a function body."""

    def __init__(
        self,
        index: ProjectIndex,
        fn: FunctionInfo,
        emit: Emitter,
        *,
        exempt_mixing: bool,
    ) -> None:
        self.index = index
        self.fn = fn
        # ast.walk visits an inner BinOp both directly and through its
        # parent's unit_of recursion; dedupe on the emission site so each
        # conflict is reported once.
        seen: set[tuple[str, int, int, str]] = set()

        def emit_once(rule: str, node: ast.AST, message: str) -> None:
            key = (
                rule,
                getattr(node, "lineno", 0),
                getattr(node, "col_offset", 0),
                message,
            )
            if key not in seen:
                seen.add(key)
                emit(rule, node, message)

        self.emit: Emitter = emit_once
        self.exempt_mixing = exempt_mixing
        self.enclosing: ClassInfo | None = (
            index.classes.get(fn.cls) if fn.cls is not None else None
        )
        self.type_env = index.env_for_function(fn)
        self.units: dict[str, str] = {}
        for param in fn.params:
            if param.unit is not None:
                self.units[param.name] = param.unit

    # -- unit resolution ------------------------------------------------
    def _factor_of(self, node: ast.expr) -> tuple[str | None, str] | None:
        """``MS`` / ``units.MS`` -> its (source, result) conversion pair."""
        name = None
        if isinstance(node, ast.Name):
            name = node.id
        elif isinstance(node, ast.Attribute):
            name = node.attr
        if name is None or name not in CONVERSION_FACTORS:
            return None
        return CONVERSION_FACTORS[name]

    def unit_of(self, node: ast.expr) -> str | None:
        """Best-effort unit of an expression (None = unknown)."""
        if isinstance(node, ast.Name):
            if self._factor_of(node) is not None:
                return None  # factors only mean something in * and /
            known = self.units.get(node.id)
            if known is not None:
                return known
            return suffix_unit(node.id)
        if isinstance(node, ast.Attribute):
            if self._factor_of(node) is not None:
                return None
            owner = self.index.type_of_expr(
                node.value,
                module=self.fn.module,
                enclosing=self.enclosing,
                env=self.type_env,
            )
            if owner is not None:
                declared = owner.attr_units.get(node.attr)
                if declared is not None:
                    return declared
            return suffix_unit(node.attr)
        if isinstance(node, ast.Subscript):
            # A container's unit names its elements: self._inflight_ns[k].
            return self.unit_of(node.value)
        if isinstance(node, ast.UnaryOp):
            return self.unit_of(node.operand)
        if isinstance(node, ast.IfExp):
            body = self.unit_of(node.body)
            orelse = self.unit_of(node.orelse)
            return body if body == orelse else None
        if isinstance(node, ast.Call):
            return self._unit_of_call(node)
        if isinstance(node, ast.BinOp):
            return self._unit_of_binop(node)
        if isinstance(node, ast.Compare):
            self._check_compare(node)
            return None
        return None

    def _unit_of_call(self, node: ast.Call) -> str | None:
        func = node.func
        if isinstance(func, ast.Name):
            if func.id in _PRESERVING_CALLS and node.args:
                return self.unit_of(node.args[0])
            if func.id in _JOINING_CALLS and node.args:
                return self._join(node, [self.unit_of(a) for a in node.args])
        resolved = self.index.resolve_call(
            node,
            module=self.fn.module,
            enclosing=self.enclosing,
            env=self.type_env,
        )
        if resolved is not None:
            return resolved.return_unit
        if isinstance(func, ast.Attribute):
            return suffix_unit(func.attr)
        if isinstance(func, ast.Name):
            return suffix_unit(func.id)
        return None

    def _join(self, node: ast.expr, units: list[str | None]) -> str | None:
        known = [u for u in units if u is not None]
        if not known:
            return None
        first = known[0]
        if any(u != first for u in known[1:]):
            if not self.exempt_mixing:
                self.emit(
                    "SIM101",
                    node,
                    f"max/min over mixed units ({', '.join(sorted(set(known)))})",
                )
            return None
        return first

    def _unit_of_binop(self, node: ast.BinOp) -> str | None:
        left_u = self.unit_of(node.left)
        right_u = self.unit_of(node.right)
        op = node.op
        if isinstance(op, ast.Mult):
            return self._unit_of_mult(node, left_u, right_u)
        if isinstance(op, (ast.Div, ast.FloorDiv)):
            return self._unit_of_div(node, left_u, right_u)
        if isinstance(op, (ast.Add, ast.Sub, ast.Mod)):
            if (
                left_u is not None
                and right_u is not None
                and left_u != right_u
                and not self.exempt_mixing
            ):
                self.emit(
                    "SIM101",
                    node,
                    f"arithmetic mixes {left_u} with {right_u}",
                )
                return None
            return left_u if left_u is not None else right_u
        return None

    def _unit_of_mult(
        self, node: ast.BinOp, left_u: str | None, right_u: str | None
    ) -> str | None:
        # Conversion factors rewrite the unit: duration_ms * MS -> ns.
        for value_node, value_u, factor_node in (
            (node.left, left_u, node.right),
            (node.right, right_u, node.left),
        ):
            factor = self._factor_of(factor_node)
            if factor is None:
                continue
            source, result = factor
            if source is not None and value_u is not None and value_u != source:
                if value_u != result and not self.exempt_mixing:
                    self.emit(
                        "SIM101",
                        node,
                        f"multiplying a {value_u} quantity by a factor "
                        f"converting {source} (expected a {source} count)",
                    )
                return None
            return result
        if left_u is None and right_u is None:
            return None
        if "gbps" in (left_u, right_u) and not self.exempt_mixing:
            other = right_u if left_u == "gbps" else left_u
            if other in _RATE_CLASH or other == "bytes_per_ns":
                self.emit(
                    "SIM104",
                    node,
                    f"gbps multiplied by {other}: convert the rate first "
                    "(gbps_to_bytes_per_ns / GBPS)",
                )
                return None
        pair = {left_u, right_u}
        if pair == {"bytes_per_ns", "ns"}:
            return "bytes"
        if left_u in DIMENSIONLESS:
            return right_u
        if right_u in DIMENSIONLESS:
            return left_u
        if left_u is None:
            return right_u  # scalar * quantity keeps the unit
        if right_u is None:
            return left_u
        return None  # known x known with no defined product: unknown

    def _unit_of_div(
        self, node: ast.BinOp, left_u: str | None, right_u: str | None
    ) -> str | None:
        factor = self._factor_of(node.right)
        if factor is not None:
            # Dividing inverts the factor: elapsed_ns / MS -> ms count.
            source, result = factor
            if left_u is not None and left_u != result and not self.exempt_mixing:
                self.emit(
                    "SIM101",
                    node,
                    f"dividing a {left_u} quantity by a factor producing "
                    f"{result} (expected a {result} quantity)",
                )
                return None
            return source
        if right_u == "gbps" and not self.exempt_mixing:
            if left_u in _RATE_CLASH:
                self.emit(
                    "SIM104",
                    node,
                    f"{left_u} divided by gbps: convert the rate first "
                    "(gbps_to_bytes_per_ns / GBPS)",
                )
            return None
        if left_u == "gbps" and right_u in _RATE_CLASH and not self.exempt_mixing:
            self.emit(
                "SIM104",
                node,
                f"gbps divided by {right_u}: convert the rate first "
                "(gbps_to_bytes_per_ns / GBPS)",
            )
            return None
        if left_u is not None and left_u == right_u:
            return "ratio"
        if right_u in DIMENSIONLESS:
            return left_u
        if right_u == "bytes_per_ns":
            # Anything divided by a rate is a duration; the numerator is
            # bytes by construction on every pacing path.
            return "ns"
        if left_u == "bytes" and right_u == "ns":
            return "bytes_per_ns"
        if right_u is None:
            return left_u  # quantity / scalar keeps the unit
        return None

    def _check_compare(self, node: ast.Compare) -> None:
        if self.exempt_mixing:
            return
        operands = [node.left, *node.comparators]
        units = [self.unit_of(o) for o in operands]
        known = [(o, u) for o, u in zip(operands, units) if u is not None]
        for (_, prev_u), (curr, curr_u) in zip(known, known[1:]):
            if prev_u != curr_u:
                self.emit(
                    "SIM101",
                    node,
                    f"comparison mixes {prev_u} with {curr_u}",
                )
                return

    # -- statement walk -------------------------------------------------
    def check(self) -> None:
        for stmt in ast.walk(self.fn.node):
            if isinstance(stmt, ast.Assign):
                self._check_assign(stmt)
            elif isinstance(stmt, ast.AnnAssign):
                self._check_ann_assign(stmt)
            elif isinstance(stmt, ast.AugAssign):
                self._check_aug_assign(stmt)
            elif isinstance(stmt, ast.Return) and stmt.value is not None:
                self._check_return(stmt)
            elif isinstance(stmt, ast.Call):
                self._check_call_args(stmt)
            elif isinstance(stmt, ast.expr) and not isinstance(
                stmt, (ast.Call, ast.Lambda)
            ):
                # Evaluate for the side effect of mixing checks inside
                # bare expressions (comparisons in asserts/ifs arrive
                # here through ast.walk).
                if isinstance(stmt, (ast.BinOp, ast.Compare)):
                    self.unit_of(stmt)

    def _target_unit(self, target: ast.expr) -> str | None:
        if isinstance(target, ast.Name):
            declared = self.units.get(target.id)
            return declared if declared is not None else suffix_unit(target.id)
        if isinstance(target, ast.Attribute):
            return self.unit_of(target)
        if isinstance(target, ast.Subscript):
            return self.unit_of(target.value)
        return None

    def _check_store(
        self, stmt: ast.stmt, target: ast.expr, value_u: str | None
    ) -> None:
        if value_u is None or self.exempt_mixing:
            return
        target_u = self._target_unit(target)
        if target_u is not None and target_u != value_u:
            self.emit(
                "SIM101",
                stmt,
                f"assigning a {value_u} value to a {target_u} target",
            )

    def _check_assign(self, stmt: ast.Assign) -> None:
        value_u = self.unit_of(stmt.value)
        for target in stmt.targets:
            self._check_store(stmt, target, value_u)
            if isinstance(target, ast.Name):
                unit = value_u if value_u is not None else suffix_unit(target.id)
                if unit is not None:
                    self.units[target.id] = unit

    def _check_ann_assign(self, stmt: ast.AnnAssign) -> None:
        declared = annotation_to_unit(stmt.annotation)
        if isinstance(stmt.target, ast.Name):
            if declared is None:
                declared = suffix_unit(stmt.target.id)
            if declared is not None:
                self.units[stmt.target.id] = declared
        if stmt.value is not None:
            value_u = self.unit_of(stmt.value)
            if (
                declared is not None
                and value_u is not None
                and declared != value_u
                and not self.exempt_mixing
            ):
                self.emit(
                    "SIM101",
                    stmt,
                    f"assigning a {value_u} value to a {declared} target",
                )

    def _check_aug_assign(self, stmt: ast.AugAssign) -> None:
        if self.exempt_mixing:
            return
        target_u = self._target_unit(stmt.target)
        value_u = self.unit_of(stmt.value)
        if target_u is None or value_u is None:
            return
        if isinstance(stmt.op, (ast.Add, ast.Sub, ast.Mod)):
            if target_u != value_u:
                self.emit(
                    "SIM101",
                    stmt,
                    f"augmented arithmetic mixes {target_u} with {value_u}",
                )

    def _check_return(self, stmt: ast.Return) -> None:
        declared = self.fn.return_unit
        if declared is None or stmt.value is None:
            return
        value_u = self.unit_of(stmt.value)
        if value_u is not None and value_u != declared:
            self.emit(
                "SIM103",
                stmt,
                f"returns a {value_u} value from a function declared "
                f"to return {declared}",
            )

    def _check_call_args(self, node: ast.Call) -> None:
        resolved = self.index.resolve_call(
            node,
            module=self.fn.module,
            enclosing=self.enclosing,
            env=self.type_env,
        )
        if resolved is None:
            return
        params = resolved.call_params
        by_name = {p.name: p for p in params}
        # Positional alignment breaks at the first *args; stop there.
        for pos, arg in enumerate(node.args):
            if isinstance(arg, ast.Starred):
                break
            if pos >= len(params):
                break
            self._check_one_arg(node, arg, params[pos], resolved)
        for kw in node.keywords:
            if kw.arg is None:  # **kwargs
                continue
            param = by_name.get(kw.arg)
            if param is not None:
                self._check_one_arg(node, kw.value, param, resolved)

    def _check_one_arg(
        self,
        call: ast.Call,
        arg: ast.expr,
        param: ParamInfo,
        resolved: FunctionInfo,
    ) -> None:
        if param.unit is None:
            return
        arg_u = self.unit_of(arg)
        if arg_u is not None and arg_u != param.unit:
            self.emit(
                "SIM102",
                call,
                f"argument '{param.name}' of {resolved.qualname} expects "
                f"{param.unit}, got {arg_u}",
            )


def check_units(index: ProjectIndex) -> list[Violation]:
    """Run SIM101–SIM104 over every in-scope function of the index.

    Units propagate through the signatures the index carries.
    """
    violations: list[Violation] = []
    for module in sorted(index.modules.values(), key=lambda m: m.name):
        if not _scoped(module.name):
            continue
        emit = make_emitter(module.source, module.path, violations)
        exempt = module.name in UNITS_EXEMPT_MODULES
        functions = [
            *module.functions.values(),
            *(
                fn
                for cls in module.classes.values()
                for fn in cls.methods.values()
            ),
        ]
        for fn in functions:
            if not fn.node.body:  # synthesised dataclass __init__
                continue
            _FunctionUnits(index, fn, emit, exempt_mixing=exempt).check()
    return violations
