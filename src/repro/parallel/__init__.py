"""Parallel sweep execution.

:mod:`repro.parallel.pool` fans independent, deterministic cells across
a process pool, with results in cell order and a serial fallback when
the pool cannot start or breaks.
"""

from repro.parallel.pool import (
    SweepCellError,
    SweepReport,
    resolve_workers,
    run_cells,
)

__all__ = [
    "SweepCellError",
    "SweepReport",
    "resolve_workers",
    "run_cells",
]
