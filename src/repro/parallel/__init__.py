"""Parallel sweep execution.

:mod:`repro.parallel.pool` fans independent cells across a process
pool, with per-cell timeouts, orphan reaping and a serial fallback
when the pool breaks.
"""

from repro.parallel.pool import (
    CellFailure,
    CellStats,
    SweepCellError,
    SweepReport,
    cell_seed,
    resolve_workers,
    run_cells,
)

__all__ = [
    "CellFailure",
    "CellStats",
    "SweepCellError",
    "SweepReport",
    "cell_seed",
    "resolve_workers",
    "run_cells",
]
