"""Whole-program lint driver: per-file rules + call-graph passes.

``repro lint`` lands here.  One invocation:

1. runs the per-file syntactic rules (SIM001–SIM005, SIM999) of
   :mod:`repro.analysis.simlint` over every file;
2. builds the :class:`~repro.analysis.callgraph.ProjectIndex` and the
   call graph once, then runs the units (SIM101–SIM104) and purity
   (SIM201–SIM203) passes over it.

Every finding is reported; an inline ``# simlint: ignore[...]``
directive is the only way to suppress one.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from pathlib import Path

from repro.analysis.callgraph import CallGraph, ProjectIndex
from repro.analysis.purity import PURITY_RULES, check_purity
from repro.analysis.registry import ALL_RULES, resolve_active_rules
from repro.analysis.simlint import (
    Violation,
    _iter_python_files,
    lint_file,
)
from repro.analysis.units import UNIT_RULES, check_units

__all__ = ["ALL_RULES", "LintReport", "lint_project"]


@dataclass
class LintReport:
    """Outcome of one whole-program lint run."""

    #: Every finding of the selected rules — any one fails CI.
    violations: list[Violation]
    file_count: int = 0
    elapsed_s: float = 0.0


def lint_project(
    paths: list[str | Path],
    *,
    select: list[str] | None = None,
    ignore: list[str] | None = None,
) -> LintReport:
    """Run the selected rules over ``paths``.

    Every rule group runs unless ``select`` / ``ignore`` narrow the rule
    set (:func:`repro.analysis.registry.resolve_active_rules` — a
    selector matching nothing raises ``ValueError``, and so does a path
    that is neither a directory nor an existing ``.py`` file).  A pass
    none of whose rules are active is skipped entirely.
    """
    start = time.perf_counter()
    active = resolve_active_rules(select=select, ignore=ignore)
    files = list(_iter_python_files(paths))

    violations: list[Violation] = []
    for path in files:
        violations.extend(
            v for v in lint_file(path) if v.rule in active
        )

    graph_rules = set(UNIT_RULES) | set(PURITY_RULES)
    if active & graph_rules:
        index = ProjectIndex.build([(p, p.read_text()) for p in files])
        graph = CallGraph(index)
        if active & set(UNIT_RULES):
            violations.extend(
                v for v in check_units(index, graph) if v.rule in active
            )
        if active & set(PURITY_RULES):
            violations.extend(
                v for v in check_purity(index, graph) if v.rule in active
            )
    violations.sort(key=lambda v: (v.path, v.line, v.col, v.rule))

    return LintReport(
        violations=violations,
        file_count=len(files),
        elapsed_s=time.perf_counter() - start,
    )
