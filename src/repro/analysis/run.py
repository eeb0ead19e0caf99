"""Whole-program lint driver: per-file rules + the units pass.

``repro lint`` lands here.  One invocation:

1. runs the per-file syntactic rules (SIM001–SIM005, SIM999) of
   :mod:`repro.analysis.simlint` over every file;
2. when a units rule is active, builds the
   :class:`~repro.analysis.index.ProjectIndex` once and runs the units
   pass (SIM101–SIM104) over it.

Every finding is reported; an inline ``# simlint: ignore[...]``
directive is the only way to suppress one.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from pathlib import Path

from repro.analysis.index import ProjectIndex
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
    that is neither a directory nor an existing ``.py`` file).  The
    project index is built only when a units rule is active.
    """
    start = time.perf_counter()
    active = resolve_active_rules(select=select, ignore=ignore)
    files = list(_iter_python_files(paths))

    violations: list[Violation] = []
    for path in files:
        violations.extend(
            v for v in lint_file(path) if v.rule in active
        )

    if not active.isdisjoint(UNIT_RULES):
        index = ProjectIndex.build([(p, p.read_text()) for p in files])
        violations.extend(v for v in check_units(index) if v.rule in active)
    violations.sort(key=lambda v: (v.path, v.line, v.col, v.rule))

    return LintReport(
        violations=violations,
        file_count=len(files),
        elapsed_s=time.perf_counter() - start,
    )
