"""Runtime analysis for the simulation core.

:mod:`repro.analysis.sanitizer` is a runtime invariant checker
(``Simulator(sanitize=True)`` / ``REPRO_SANITIZE=1``) that verifies
clock monotonicity, queue-depth non-negativity, NIC byte conservation,
WRR token bounds, and FTL mapping consistency on every dispatched
event.  The package re-exports nothing: import the submodule.

Nothing here analyses source code.  Bit-identical replay is checked by
its effect: every testbed world is built and continued in fresh
interpreters with distinct hash seeds, shifted clocks and reseeded
global RNGs, under an audit hook, and must reproduce pinned digests
(DESIGN.md §6, §11.5).  Pinned outputs guard the unit conversions
(DESIGN.md §8).
"""
