"""Lint driver: rule selection plus the per-file rules.

``repro lint`` lands here.  One invocation runs the per-file
determinism rules (SIM001–SIM005, SIM999) of
:mod:`repro.analysis.simlint` over every file and keeps the findings of
the selected rules.  ``--select`` / ``--ignore`` tokens are rule-id
prefixes (``SIM00`` -> SIM001–SIM005, ``sim003`` -> itself); a token
matching no rule is an error, since a typo silently selecting zero
rules would read as "clean".

SIM999 (file does not parse) is always active: a parse failure hides
every other finding, so deselecting it can only hide findings.

Every finding is reported; an inline ``# simlint: ignore[...]``
directive is the only way to suppress one.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from pathlib import Path

from repro.analysis.simlint import (
    RULES,
    Violation,
    _iter_python_files,
    lint_file,
)

__all__ = [
    "LintReport",
    "expand_selection",
    "lint_project",
    "resolve_active_rules",
]


def expand_selection(tokens: list[str]) -> frozenset[str]:
    """Rule ids matching the given rule-id prefixes (comma-splittable).

    Raises ``ValueError`` on a token that matches nothing.
    """
    out: set[str] = set()
    for raw in tokens:
        for token in raw.split(","):
            token = token.strip()
            if not token:
                continue
            prefix = token.upper()
            matches = {r for r in RULES if r.startswith(prefix)}
            if not matches:
                raise ValueError(
                    f"rule selector {token!r} matches no SIM rule "
                    f"(rules: {', '.join(sorted(RULES))})"
                )
            out.update(matches)
    return frozenset(out)


def resolve_active_rules(
    *,
    select: list[str] | None = None,
    ignore: list[str] | None = None,
) -> frozenset[str]:
    """The rule set one lint run should emit.

    Without ``select``, every rule runs; with it, only the selection.
    ``ignore`` is subtracted last and wins.  SIM999 is never
    deselectable.
    """
    active = set(expand_selection(select)) if select else set(RULES)
    if ignore:
        active -= expand_selection(ignore)
    active.add("SIM999")
    return frozenset(active)


@dataclass
class LintReport:
    """Outcome of one lint run."""

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

    Every rule runs unless ``select`` / ``ignore`` narrow the rule set
    (:func:`resolve_active_rules` — a selector matching nothing raises
    ``ValueError``, and so does a path that is neither a directory nor
    an existing ``.py`` file).
    """
    start = time.perf_counter()
    active = resolve_active_rules(select=select, ignore=ignore)
    files = list(_iter_python_files(paths))

    violations: list[Violation] = []
    for path in files:
        violations.extend(
            v for v in lint_file(path) if v.rule in active
        )
    violations.sort(key=lambda v: (v.path, v.line, v.col, v.rule))

    return LintReport(
        violations=violations,
        file_count=len(files),
        elapsed_s=time.perf_counter() - start,
    )
