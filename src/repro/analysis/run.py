"""Whole-program lint driver: per-file rules + call-graph passes + baseline.

``repro lint`` lands here.  One invocation:

1. runs the per-file syntactic rules (SIM001–SIM005, SIM999) of
   :mod:`repro.analysis.simlint` over every file;
2. builds the :class:`~repro.analysis.callgraph.ProjectIndex` (optionally
   from a content-hashed AST cache) and the call graph once, then runs
   the units (SIM101–SIM104), purity (SIM201–SIM203) and snapshot-safety
   (SIM401–SIM404, :mod:`repro.analysis.snapshots`, findings cached as
   ``snapshots.json`` beside the AST cache) passes over it;
3. subtracts the checked-in baseline
   (:mod:`repro.analysis.baseline`), so CI fails only on *new* findings
   — stale entries get one marked grace run, then fail the gate
   (``prune_baseline=True`` drops them immediately instead).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from pathlib import Path

from repro.analysis import baseline as baseline_io
from repro.analysis.baseline import BaselineEntry
from repro.analysis.callgraph import CallGraph, ProjectIndex
from repro.analysis.purity import PURITY_RULES, check_purity
from repro.analysis.registry import ALL_RULES, resolve_active_rules
from repro.analysis.simlint import (
    Violation,
    _iter_python_files,
    lint_file,
)
from repro.analysis.snapshots import (
    SNAPSHOT_RULES,
    load_or_compute_snapshots,
    snapshots_cache_path,
)
from repro.analysis.units import UNIT_RULES, check_units

__all__ = ["ALL_RULES", "LintReport", "lint_project"]


@dataclass
class LintReport:
    """Outcome of one whole-program lint run."""

    #: Findings not covered by the baseline — these fail CI.
    violations: list[Violation]
    #: Baseline entries that matched a current finding.
    baselined: list[BaselineEntry] = field(default_factory=list)
    #: Baseline entries that just went stale (first miss: grace run).
    stale: list[BaselineEntry] = field(default_factory=list)
    #: Entries stale for more than one run — these fail CI too.
    stale_failures: list[BaselineEntry] = field(default_factory=list)
    #: Entries dropped by ``prune_baseline=True``.
    pruned: list[BaselineEntry] = field(default_factory=list)
    file_count: int = 0
    elapsed_s: float = 0.0

    @property
    def ok(self) -> bool:
        return not self.violations and not self.stale_failures


def lint_project(
    paths: list[str | Path],
    *,
    baseline_path: Path | None = None,
    update_baseline: bool = False,
    cache_path: Path | None = None,
    root: Path | None = None,
    prune_baseline: bool = False,
    select: list[str] | None = None,
    ignore: list[str] | None = None,
) -> LintReport:
    """Run the selected rules over ``paths`` and apply the baseline.

    ``root`` anchors the repo-relative paths stored in the baseline
    (defaults to the current directory when a baseline is in play).
    With ``update_baseline`` the baseline file is rewritten from the
    current findings (reasons carried forward, new entries stamped
    ``TODO: justify``) and the report comes back clean.  Every rule
    group runs unless ``select`` / ``ignore`` narrow the rule set
    (:func:`repro.analysis.registry.resolve_active_rules` — a selector
    matching nothing raises ``ValueError``).  A pass none of whose
    rules are active is skipped entirely.  ``prune_baseline`` drops
    entries that matched nothing this run.
    """
    start = time.perf_counter()
    active = resolve_active_rules(select=select, ignore=ignore)
    files = list(_iter_python_files(paths))

    violations: list[Violation] = []
    for path in files:
        violations.extend(
            v for v in lint_file(path) if v.rule in active
        )

    graph_rules = set(UNIT_RULES) | set(PURITY_RULES) | set(SNAPSHOT_RULES)
    if active & graph_rules:
        index = ProjectIndex.build_cached(files, cache_path)
        graph = CallGraph(index)
        if active & set(UNIT_RULES):
            violations.extend(
                v for v in check_units(index, graph) if v.rule in active
            )
        if active & set(PURITY_RULES):
            violations.extend(
                v for v in check_purity(index, graph) if v.rule in active
            )
        if active & set(SNAPSHOT_RULES):
            violations.extend(
                v
                for v in load_or_compute_snapshots(
                    index, graph, snapshots_cache_path(cache_path)
                )
                if v.rule in active
            )
    violations.sort(key=lambda v: (v.path, v.line, v.col, v.rule))

    report = LintReport(
        violations=violations,
        file_count=len(files),
    )
    if baseline_path is not None:
        if root is None:
            root = Path.cwd()
        if update_baseline:
            report.baselined = baseline_io.update_baseline(
                baseline_path, violations, root=root
            )
            report.violations = []
        else:
            entries = baseline_io.load_baseline(baseline_path)
            fresh, matched = baseline_io.apply_baseline(
                violations, entries, root=root
            )
            report.violations = fresh
            report.baselined = matched
            if prune_baseline:
                report.pruned = baseline_io.prune_stale(
                    baseline_path, entries, matched
                )
            else:
                report.stale, report.stale_failures = (
                    baseline_io.reconcile_stale(baseline_path, entries, matched)
                )
    report.elapsed_s = time.perf_counter() - start
    return report
