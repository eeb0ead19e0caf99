"""Process-pool execution of independent simulation sweep cells.

Every reproduced figure/table is a sweep: a grid of independent cells,
each of which builds its own :class:`repro.sim.engine.Simulator` from
explicit parameters and returns plain measurements.  Nothing couples
the cells, so they fan out across cores — the same decomposition that
lets sampled/parallel estimators scale in the data-center simulation
literature (see PAPERS.md).

Determinism contract
--------------------
A cell's output may depend *only* on its arguments — never on
execution order, process identity, wall-clock time, or shared mutable
state — so ``workers=N`` is bit-identical to ``workers=1``.  Callers
put any seed a cell needs into its arguments.

Failure handling
----------------
A cell is deterministic, so a cell that raises runs once and is never
rerun: a second run would raise again.  The sweep aborts with
:class:`SweepCellError`, naming the cell.

The pool itself may fail where a cell cannot:

* pool creation fails (restricted sandboxes, missing ``/dev/shm``) —
  the whole sweep runs serially in-process;
* the pool breaks (a worker SIGKILLed or OOM-killed) — every
  uncollected cell reruns serially.  ``concurrent.futures`` fails every
  uncollected future with the same ``BrokenProcessPool``, so the dead
  worker's cell cannot be told apart and no cell is charged with the
  break; the executor terminates and joins its surviving workers.
"""

from __future__ import annotations

import multiprocessing
import os
from concurrent.futures import Future, ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass
from typing import Any, Callable, Iterable, Sequence

__all__ = [
    "SweepCellError",
    "SweepReport",
    "resolve_workers",
    "run_cells",
]


def resolve_workers(workers: int | None) -> int:
    """Normalise a ``workers`` knob: ``None``/``0`` means all cores."""
    if workers is None or workers == 0:
        return os.cpu_count() or 1
    if workers < 0:
        raise ValueError(f"workers must be >= 0 or None, got {workers}")
    return workers


class SweepCellError(RuntimeError):
    """A sweep cell raised."""

    def __init__(self, index: int, cause: BaseException) -> None:
        super().__init__(f"sweep cell {index} failed: {cause!r}")
        self.index = index
        self.cause = cause


@dataclass
class SweepReport:
    """Sweep results in cell order, with how they were produced."""

    results: list[Any]
    mode: str  # "serial" | "pool" | "pool+serial-fallback"
    #: Simulator events summed over the cells, for sweeps that count
    #: them (the TPM training sweep); 0 otherwise.
    sim_events: int = 0


def _make_executor(workers: int) -> ProcessPoolExecutor:
    # Fork keeps already-imported numpy/repro state and is the cheap,
    # deterministic-friendly option on Linux; spawn is the fallback.
    methods = multiprocessing.get_all_start_methods()
    ctx = multiprocessing.get_context("fork" if "fork" in methods else "spawn")
    return ProcessPoolExecutor(max_workers=workers, mp_context=ctx)


def run_cells(
    fn: Callable[..., Any],
    cells: Iterable[Sequence[Any]],
    *,
    workers: int | None = 1,
    progress: Callable[[int, int], None] | None = None,
) -> SweepReport:
    """Run ``fn(*cell)`` for every cell, fanning across processes.

    Parameters
    ----------
    fn:
        A **module-level** function (it is pickled by reference for the
        pool path).
    cells:
        One positional-argument tuple per cell.  Results come back in
        cell order regardless of completion order.
    workers:
        Process count; ``None``/``0`` uses every core, ``1`` runs
        serially in-process (no pool, no pickling).
    progress:
        Optional ``(done, total)`` callback, invoked in cell order.

    A cell that raises aborts the sweep with :class:`SweepCellError`.
    """
    cell_list = [tuple(c) for c in cells]
    n = len(cell_list)
    n_workers = resolve_workers(workers)
    results: list[Any] = [None] * n

    mode = "serial"
    executor: ProcessPoolExecutor | None = None
    futures: list[Future[Any]] = []
    if n_workers > 1 and n > 1:
        try:
            executor = _make_executor(min(n_workers, n))
            futures = [executor.submit(fn, *c) for c in cell_list]
            mode = "pool"
        except (OSError, ValueError, ImportError):
            # Pool unavailable: the whole sweep runs serially.
            if executor is not None:
                executor.shutdown(wait=False, cancel_futures=True)
            executor = None
    try:
        for i, cell in enumerate(cell_list):
            try:
                if futures:
                    try:
                        results[i] = futures[i].result()
                    except BrokenProcessPool:
                        # Finish serially; the break charges no cell.
                        futures, mode = [], "pool+serial-fallback"
                if not futures:
                    results[i] = fn(*cell)
            except Exception as exc:  # noqa: BLE001 — cell code is arbitrary
                raise SweepCellError(i, exc) from exc
            if progress:
                progress(i + 1, n)
    finally:
        if executor is not None:
            executor.shutdown(cancel_futures=True)

    return SweepReport(results=results, mode=mode)
