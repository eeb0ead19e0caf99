"""SARIF 2.1.0 output for the linter (``repro lint --format sarif``).

SARIF (Static Analysis Results Interchange Format) is the
CI-toolchain-neutral exchange format: GitHub code scanning, GitLab,
VS Code's SARIF viewer, and most annotation bots all ingest it, so one
artifact renders the lint findings anywhere.  Only the minimal
mandatory subset of the (large) schema is emitted — tool driver with
rule metadata, plus one ``result`` per finding with a physical
location.  ``violations_from_sarif`` inverts the mapping exactly
(modulo SARIF's 1-based columns), which the round-trip test pins down.
"""

from __future__ import annotations

import json

from repro.analysis.simlint import Violation

__all__ = ["sarif_report", "to_sarif", "violations_from_sarif"]

_SCHEMA = "https://json.schemastore.org/sarif-2.1.0.json"
_TOOL_URI = "https://github.com/conf-ipps/repro"


def sarif_report(
    violations: list[Violation], rules: dict[str, str]
) -> dict:
    """The SARIF log as a plain dict (one run, one tool driver).

    ``rules`` maps rule id -> one-line description; only rules that
    actually fired are listed in the driver so the file stays small.
    """
    fired = sorted({v.rule for v in violations})
    return {
        "$schema": _SCHEMA,
        "version": "2.1.0",
        "runs": [
            {
                "tool": {
                    "driver": {
                        "name": "simlint",
                        "informationUri": _TOOL_URI,
                        "rules": [
                            {
                                "id": rule,
                                "shortDescription": {
                                    "text": rules.get(rule, rule)
                                },
                            }
                            for rule in fired
                        ],
                    }
                },
                "results": [_result(v) for v in violations],
            }
        ],
    }


def _result(v: Violation) -> dict:
    return {
        "ruleId": v.rule,
        "level": "error",
        "message": {"text": v.message},
        "locations": [
            {
                "physicalLocation": {
                    "artifactLocation": {"uri": v.path},
                    "region": {
                        # SARIF regions are 1-based; ast columns are
                        # 0-based.  Lines are 1-based on both sides.
                        "startLine": max(v.line, 1),
                        "startColumn": v.col + 1,
                    },
                }
            }
        ],
    }


def to_sarif(violations: list[Violation], rules: dict[str, str]) -> str:
    return json.dumps(sarif_report(violations, rules), indent=2) + "\n"


def violations_from_sarif(data: dict | str) -> list[Violation]:
    """Parse a SARIF log (dict or JSON text) back into :class:`Violation`s.

    Inverse of :func:`sarif_report` for logs it produced; tolerant of
    missing optional fields in logs from other tools.
    """
    if isinstance(data, str):
        data = json.loads(data)
    out: list[Violation] = []
    for run in data.get("runs", []):
        for result in run.get("results", []):
            locations = result.get("locations") or [{}]
            physical = locations[0].get("physicalLocation", {})
            region = physical.get("region", {})
            out.append(
                Violation(
                    rule=result.get("ruleId", ""),
                    path=physical.get("artifactLocation", {}).get("uri", ""),
                    line=region.get("startLine", 1),
                    col=region.get("startColumn", 1) - 1,
                    message=result.get("message", {}).get("text", ""),
                )
            )
    return out
