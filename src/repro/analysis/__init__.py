"""Static and runtime analysis for the simulation core.

Three layers guard the repo's bit-identical-replay guarantee:

* :mod:`repro.analysis.simlint` — per-file AST determinism rules
  (SIM001–SIM005): wall-clock access, out-of-band randomness, unordered
  set iteration, missing ``__slots__`` on manifest hot-path classes,
  swallowed exceptions;
* the whole-program passes — :mod:`repro.analysis.callgraph` builds a
  project-wide symbol table + call graph (resolving the scheduler's
  ``schedule(callback, *args)`` indirection),
  :mod:`repro.analysis.units` checks units-of-measure dataflow
  (SIM101–SIM104), :mod:`repro.analysis.purity` checks event-callback
  purity (SIM201–SIM203), and :mod:`repro.analysis.effects` +
  :mod:`repro.analysis.shards` compute interprocedural effect/escape
  summaries and the shard-safety rules (SIM301–SIM304,
  ``repro lint --shards``); :mod:`repro.analysis.snapshots` proves
  every world checkpointable on the same substrate (SIM401–SIM404,
  ``repro lint --snapshots``);
  :mod:`repro.analysis.run` drives all of it behind the
  :mod:`repro.analysis.baseline` suppression workflow (``repro lint``),
  with rule selection via :mod:`repro.analysis.registry`
  (``--select``/``--ignore``) and :mod:`repro.analysis.sarif` as the
  CI-neutral output format;
* :mod:`repro.analysis.sanitizer` — a runtime invariant checker
  (``Simulator(sanitize=True)`` / ``REPRO_SANITIZE=1``) that verifies
  clock monotonicity, queue-depth non-negativity, NIC byte
  conservation, WRR token bounds, and FTL mapping consistency on every
  dispatched event.

See DESIGN.md §6 ("Determinism & sanitizer contract"), §8
("Whole-program analysis"), and §10 ("Effect analysis & shard safety").
"""

from __future__ import annotations

from repro.analysis.baseline import (
    BaselineEntry,
    apply_baseline,
    load_baseline,
    prune_stale,
    reconcile_stale,
    update_baseline,
    write_baseline,
)
from repro.analysis.callgraph import CallGraph, ProjectIndex
from repro.analysis.effects import (
    EffectMap,
    EffectSummary,
    compute_effects,
    load_or_compute_effects,
)
from repro.analysis.manifest import (
    CHECKPOINT_PACKAGES,
    COMPONENT_CLASSES,
    HEAP_EXTRA_CLASSES,
    REDUCER_SANCTIONED,
    SHARD_REACH,
    SIM_PACKAGES,
    SLOTS_MANIFEST,
    UNITS_EXEMPT_MODULES,
)
from repro.analysis.purity import PURITY_RULES, check_purity
from repro.analysis.registry import (
    RULE_GROUPS,
    RuleGroup,
    expand_selection,
    resolve_active_rules,
)
from repro.analysis.sarif import sarif_report, to_sarif, violations_from_sarif
from repro.analysis.shards import SHARD_RULES, check_shards
from repro.analysis.snapshots import (
    SNAPSHOT_RULES,
    check_snapshots,
    heap_class_census,
    load_or_compute_snapshots,
)
from repro.analysis.run import ALL_RULES, LintReport, lint_project
from repro.analysis.sanitizer import (
    Sanitizer,
    SanitizerError,
    env_sanitize_enabled,
    ftl_mapping_violation,
)
from repro.analysis.simlint import (
    RULES,
    Violation,
    format_violations,
    lint_file,
    lint_paths,
)
from repro.analysis.units import UNIT_RULES, check_units

__all__ = [
    "ALL_RULES",
    "BaselineEntry",
    "CHECKPOINT_PACKAGES",
    "COMPONENT_CLASSES",
    "CallGraph",
    "EffectMap",
    "EffectSummary",
    "HEAP_EXTRA_CLASSES",
    "LintReport",
    "PURITY_RULES",
    "ProjectIndex",
    "REDUCER_SANCTIONED",
    "RULES",
    "RULE_GROUPS",
    "RuleGroup",
    "SHARD_REACH",
    "SHARD_RULES",
    "SIM_PACKAGES",
    "SLOTS_MANIFEST",
    "SNAPSHOT_RULES",
    "Sanitizer",
    "SanitizerError",
    "UNITS_EXEMPT_MODULES",
    "UNIT_RULES",
    "Violation",
    "apply_baseline",
    "check_purity",
    "check_shards",
    "check_snapshots",
    "check_units",
    "compute_effects",
    "env_sanitize_enabled",
    "expand_selection",
    "format_violations",
    "ftl_mapping_violation",
    "heap_class_census",
    "lint_file",
    "lint_paths",
    "lint_project",
    "load_baseline",
    "load_or_compute_effects",
    "load_or_compute_snapshots",
    "resolve_active_rules",
    "prune_stale",
    "reconcile_stale",
    "sarif_report",
    "to_sarif",
    "update_baseline",
    "violations_from_sarif",
    "write_baseline",
]
