"""Unified SIM rule registry and CLI rule selection.

Every lint rule the driver can emit, grouped by the pass that computes
it.  Every group runs by default; ``repro lint --select SIM1 --ignore
SIM102`` style selection resolves here: tokens are rule-id prefixes
(``SIM1`` -> SIM101–SIM104, ``SIM102`` -> itself) or group keys
(``units``).  A token matching nothing is an error — a typo
silently selecting zero rules would read as "clean".

SIM999 (file does not parse) is always active: a parse failure
undermines every other pass, so deselecting it can only hide findings.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.analysis.simlint import RULES
from repro.analysis.units import UNIT_RULES

__all__ = [
    "ALL_RULES",
    "RULE_GROUPS",
    "RuleGroup",
    "expand_selection",
    "resolve_active_rules",
]


@dataclass(frozen=True)
class RuleGroup:
    """One lint pass and the rules it emits."""

    key: str  # selection token (``--select units``)
    title: str
    rules: tuple[str, ...]


RULE_GROUPS: tuple[RuleGroup, ...] = (
    RuleGroup("core", "per-file determinism rules", tuple(sorted(RULES))),
    RuleGroup("units", "units-of-measure dataflow", tuple(sorted(UNIT_RULES))),
)

#: Every rule the whole-program driver can emit.
ALL_RULES: dict[str, str] = {**RULES, **UNIT_RULES}

_GROUPS_BY_KEY = {g.key: g for g in RULE_GROUPS}


def expand_selection(tokens: list[str]) -> frozenset[str]:
    """Rule ids matching the given tokens (comma-splittable).

    A token is a group key (``units``) or a rule-id prefix
    (``SIM1``, ``sim102``).  Raises ``ValueError`` on a token that
    matches nothing.
    """
    out: set[str] = set()
    for raw in tokens:
        for token in raw.split(","):
            token = token.strip()
            if not token:
                continue
            group = _GROUPS_BY_KEY.get(token.lower())
            if group is not None:
                out.update(group.rules)
                continue
            prefix = token.upper()
            matches = {r for r in ALL_RULES if r.startswith(prefix)}
            if not matches:
                raise ValueError(
                    f"rule selector {token!r} matches no SIM rule or group "
                    f"(groups: {', '.join(sorted(_GROUPS_BY_KEY))})"
                )
            out.update(matches)
    return frozenset(out)


def resolve_active_rules(
    *,
    select: list[str] | None = None,
    ignore: list[str] | None = None,
) -> frozenset[str]:
    """The rule set one lint run should emit.

    Without ``select``, every group runs; with it, only the selection.
    ``ignore`` is subtracted last and wins.  SIM999 is never
    deselectable.
    """
    active = set(expand_selection(select)) if select else set(ALL_RULES)
    if ignore:
        active -= expand_selection(ignore)
    active.add("SIM999")
    return frozenset(active)
