"""Process-pool execution of independent simulation sweep cells.

Every reproduced figure/table is a sweep: a grid of independent cells,
each of which builds its own :class:`repro.sim.engine.Simulator` from
explicit parameters and returns plain measurements.  Nothing couples
the cells, so they fan out across cores — the same decomposition that
lets sampled/parallel estimators scale in the data-center simulation
literature (see PAPERS.md).

Determinism contract
--------------------
A cell's output may depend *only* on its submitted ``(fn, args)`` —
never on execution order, process identity, wall-clock time, or shared
mutable state.  Callers derive any randomness from an explicit seed in
the cell's arguments (:func:`cell_seed` mixes a root seed with the cell
index), so ``workers=N`` is bit-identical to ``workers=1``.

Failure handling
----------------
``run_cells`` keeps the sweep alive when the pool cannot:

* pool creation fails (restricted sandboxes, missing ``/dev/shm``) —
  the whole sweep silently runs serially in-process;
* a cell raises — it is retried (serially, in-process) up to
  ``retries`` more times; what happens when the budget is exhausted is
  the ``on_error`` knob: ``"raise"`` aborts the sweep with
  :class:`SweepCellError` (the default), ``"record"`` stores a
  structured :class:`CellFailure` (cell index, exception repr, attempt
  count) in ``SweepReport.failures`` and keeps going — a 200-cell chaos
  matrix should report its three broken cells, not die on the first;
* a cell exceeds ``timeout_s`` or the pool breaks — the pool is torn
  down, every orphaned worker process is terminated and reaped (a
  timed-out cell's worker keeps computing otherwise), and every
  uncollected cell falls back to the serial path (timeouts cannot be
  enforced in-process; the fallback runs to completion).  A timeout is
  charged as one attempt against its own cell's budget and recorded in
  its :class:`CellFailure` as ``kind="timeout"`` when the budget runs
  out.  A broken pool (a worker SIGKILLed or OOM-killed) charges no
  cell: ``concurrent.futures`` fails every uncollected future with the
  same ``BrokenProcessPool``, so the dead worker's cell cannot be told
  apart, and every uncollected cell reruns with its full budget.
"""

from __future__ import annotations

import multiprocessing
import os
import time
from concurrent.futures import Future, ProcessPoolExecutor
from concurrent.futures import TimeoutError as _FutureTimeout
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field
from typing import Any, Callable, Iterable, Sequence

__all__ = [
    "CellFailure",
    "CellStats",
    "SweepCellError",
    "SweepReport",
    "cell_seed",
    "resolve_workers",
    "run_cells",
]

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15


def cell_seed(root_seed: int, index: int) -> int:
    """Deterministic per-cell seed: splitmix64 of (root seed, cell index).

    Adjacent indices map to well-separated 31-bit seeds, so per-cell RNG
    streams do not overlap the way ``root_seed + index`` streams can.
    """
    if index < 0:
        raise ValueError(f"cell index must be non-negative, got {index}")
    x = (root_seed ^ (index * _GOLDEN)) & _MASK64
    z = (x + _GOLDEN) & _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    z ^= z >> 31
    return int(z % (1 << 31))


def resolve_workers(workers: int | None) -> int:
    """Normalise a ``workers`` knob: ``None``/``0`` means all cores."""
    if workers is None or workers == 0:
        return os.cpu_count() or 1
    if workers < 0:
        raise ValueError(f"workers must be >= 0 or None, got {workers}")
    return workers


class SweepCellError(RuntimeError):
    """A sweep cell kept failing after all retry attempts."""

    def __init__(self, index: int, attempts: int, cause: BaseException) -> None:
        super().__init__(
            f"sweep cell {index} failed after {attempts} attempt(s): {cause!r}"
        )
        self.index = index
        self.attempts = attempts
        self.cause = cause


@dataclass(frozen=True)
class CellFailure:
    """One cell that exhausted its retry budget (``on_error="record"``).

    The failing cell's slot in ``SweepReport.results`` holds ``None``;
    this record carries what a post-mortem needs: which cell, what it
    raised, how many attempts were spent on it, and how its last
    attempt died: ``"exception"`` (the cell raised) or ``"timeout"``
    (its worker blew the per-cell deadline and was killed).
    """

    index: int
    error: str  # repr() of the last exception — picklable, log-friendly
    attempts: int
    kind: str = "exception"  # "exception" | "timeout"


@dataclass(frozen=True)
class CellStats:
    """Per-cell execution record."""

    index: int
    wall_s: float
    attempts: int
    sim_events: int
    mode: str  # "pool" | "serial" | "failed"


@dataclass
class SweepReport:
    """Ordered sweep results plus lightweight perf counters."""

    results: list[Any]
    cell_stats: list[CellStats]
    workers: int
    wall_s: float
    mode: str  # "serial" | "pool" | "pool+serial-fallback"
    #: Cells that exhausted their retries (``on_error="record"`` only);
    #: each failed cell's ``results`` slot is ``None``.
    failures: list[CellFailure] = field(default_factory=list)
    #: Orphaned worker processes terminated after a timeout/pool break.
    workers_reaped: int = 0

    @property
    def n_cells(self) -> int:
        return len(self.results)

    @property
    def n_failed(self) -> int:
        return len(self.failures)

    @property
    def cell_wall_s(self) -> float:
        """Summed in-cell wall time (the work the sweep actually did)."""
        return sum(s.wall_s for s in self.cell_stats)

    @property
    def sim_events(self) -> int:
        """Total simulator events dispatched across cells (when reported)."""
        return sum(s.sim_events for s in self.cell_stats)

    def events_per_sec(self) -> float:
        """Aggregate simulated events per wall-clock second."""
        return self.sim_events / self.wall_s if self.wall_s > 0 else 0.0

    def utilization(self) -> float:
        """Fraction of the worker pool kept busy (1.0 = perfect overlap)."""
        if self.wall_s <= 0 or self.workers <= 0:
            return 0.0
        return min(1.0, self.cell_wall_s / (self.wall_s * self.workers))

    def perf_dict(self) -> dict[str, Any]:
        """JSON-ready counters for BENCH_*.json / ``extra_info``."""
        return {
            "mode": self.mode,
            "workers": self.workers,
            "n_cells": self.n_cells,
            "wall_s": round(self.wall_s, 4),
            "cell_wall_s": round(self.cell_wall_s, 4),
            "mean_cell_wall_s": round(
                self.cell_wall_s / self.n_cells, 4
            ) if self.n_cells else 0.0,
            "sim_events": self.sim_events,
            "events_per_sec": round(self.events_per_sec(), 1),
            "utilization": round(self.utilization(), 3),
            "n_failed": self.n_failed,
            "workers_reaped": self.workers_reaped,
        }


def _probe_events(value: Any) -> int:
    """Extract a cell's reported simulator event count, if any."""
    if isinstance(value, dict):
        v = value.get("sim_events")
    else:
        v = getattr(value, "sim_events", None)
    try:
        return int(v) if v is not None else 0
    except (TypeError, ValueError):
        return 0


def _run_cell(fn: Callable[..., Any], args: Sequence[Any]) -> tuple[Any, float]:
    """Worker-side wrapper: invoke the cell and time it."""
    t0 = time.perf_counter()
    value = fn(*args)
    return value, time.perf_counter() - t0


def _run_serial(
    fn: Callable[..., Any],
    args: Sequence[Any],
    index: int,
    retries: int,
    prior_attempts: int = 0,
    last_exc: BaseException | None = None,
) -> tuple[Any, float, int]:
    """In-process execution with retry; returns (value, wall_s, attempts).

    ``prior_attempts`` counts pool-side failures already spent from the
    cell's budget of ``1 + retries`` total attempts.
    """
    attempts = prior_attempts
    max_attempts = 1 + max(0, retries)
    while attempts < max_attempts:
        attempts += 1
        try:
            value, wall = _run_cell(fn, args)
            return value, wall, attempts
        except Exception as exc:  # noqa: BLE001 — cell code is arbitrary
            last_exc = exc
    assert last_exc is not None
    raise SweepCellError(index, attempts, last_exc)


def _reap_processes(executor: ProcessPoolExecutor) -> int:
    """Terminate and join every still-live worker of a dead pool.

    ``shutdown(wait=False)`` abandons running workers: a timed-out
    cell's process would keep computing (and holding memory) for the
    rest of the sweep.  Returns how many live workers were killed.
    """
    procs = list((getattr(executor, "_processes", None) or {}).values())
    live = [p for p in procs if p.is_alive()]
    for p in live:
        p.terminate()
    for p in live:
        p.join(timeout=2.0)
        if p.is_alive():  # ignored SIGTERM (stuck in C code): escalate
            p.kill()
            p.join(timeout=2.0)
    return len(live)


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
    timeout_s: float | None = None,
    retries: int = 1,
    on_error: str = "raise",
    progress: Callable[[int, int], None] | None = None,
) -> SweepReport:
    """Run ``fn(*cell)`` for every cell, fanning across processes.

    Parameters
    ----------
    fn:
        A **module-level** function (it is pickled by reference for the
        pool path).  If a returned value exposes ``sim_events`` (attr or
        dict key), it feeds the report's events/sec counter.
    cells:
        One positional-argument tuple per cell.  Results come back in
        cell order regardless of completion order.
    workers:
        Process count; ``None``/``0`` uses every core, ``1`` runs
        serially in-process (no pool, no pickling).
    timeout_s:
        Per-cell deadline, enforced only on the pool path; a timed-out
        sweep degrades to serial for the uncollected cells.  The
        orphaned worker is terminated and reaped (counted in
        ``SweepReport.workers_reaped``) and the kill is charged as one
        attempt against the timed-out cell's budget.
    retries:
        Extra attempts per failing cell before it counts as failed.
    on_error:
        ``"raise"`` aborts the sweep with :class:`SweepCellError` when a
        cell's attempts are exhausted; ``"record"`` logs a
        :class:`CellFailure` in the report, leaves ``None`` in that
        cell's result slot, and finishes the rest of the sweep.
    progress:
        Optional ``(done, total)`` callback, invoked in cell order.
    """
    if on_error not in ("raise", "record"):
        raise ValueError(f"on_error must be 'raise' or 'record', got {on_error!r}")
    cell_list = [tuple(c) for c in cells]
    n = len(cell_list)
    n_workers = resolve_workers(workers)
    results: list[Any] = [None] * n
    stats: list[CellStats | None] = [None] * n
    failures: list[CellFailure] = []
    t_start = time.perf_counter()

    def record(i: int, value: Any, wall: float, attempts: int, mode: str) -> None:
        results[i] = value
        stats[i] = CellStats(
            index=i,
            wall_s=wall,
            attempts=attempts,
            sim_events=_probe_events(value),
            mode=mode,
        )
        if progress:
            progress(sum(s is not None for s in stats), n)

    def record_failure(i: int, err: SweepCellError) -> None:
        if on_error == "raise":
            raise err
        results[i] = None
        stats[i] = CellStats(
            index=i, wall_s=0.0, attempts=err.attempts, sim_events=0, mode="failed"
        )
        # The pool's deadline kill, not a TimeoutError the cell raised.
        timeout = timed_out is not None and err.cause is timed_out[1]
        kind = "timeout" if timeout else "exception"
        failures.append(
            CellFailure(
                index=i, error=repr(err.cause), attempts=err.attempts, kind=kind
            )
        )
        if progress:
            progress(sum(s is not None for s in stats), n)

    mode = "serial"
    start_index = 0
    workers_reaped = 0
    #: Set when a cell blew its deadline: (cell index, timeout error).
    timed_out: tuple[int, BaseException] | None = None
    executor: ProcessPoolExecutor | None = None
    futures: list[Future[tuple[Any, float]]] = []
    if n_workers > 1 and n > 1:
        try:
            executor = _make_executor(min(n_workers, n))
            futures = [executor.submit(_run_cell, fn, c) for c in cell_list]
        except (OSError, ValueError, ImportError, PermissionError):
            if executor is not None:
                executor.shutdown(wait=False, cancel_futures=True)
            executor = None  # pool unavailable: graceful serial fallback
            futures = []

    if executor is not None:
        mode = "pool"
        pool_dead = False
        try:
            for i in range(n):
                try:
                    value, wall = futures[i].result(timeout=timeout_s)
                    record(i, value, wall, 1, "pool")
                except (_FutureTimeout, BrokenProcessPool, OSError) as exc:
                    # Pool-level failure: abandon it, finish serially.
                    # A timeout charges its own cell one attempt (the
                    # kill); a broken pool fails every uncollected
                    # future alike, so it charges no cell.
                    pool_dead = True
                    mode = "pool+serial-fallback"
                    start_index = i
                    if isinstance(exc, _FutureTimeout):
                        timed_out = (i, exc)
                    break
                except Exception as exc:  # noqa: BLE001 — cell failure: retry in-process
                    try:
                        value, wall, attempts = _run_serial(
                            fn, cell_list[i], i, retries,
                            prior_attempts=1, last_exc=exc,
                        )
                    except SweepCellError as err:
                        record_failure(i, err)
                    else:
                        record(i, value, wall, attempts, "serial")
                start_index = i + 1
        finally:
            if pool_dead:
                # Reap before shutdown(): shutdown drops the executor's
                # process table, and with wait=False it would abandon
                # still-running workers as orphans.
                workers_reaped = _reap_processes(executor)
            executor.shutdown(wait=not pool_dead, cancel_futures=True)

    for i in range(start_index, n):
        if stats[i] is not None:
            continue
        prior_attempts = 0
        last_exc: BaseException | None = None
        if timed_out is not None and i == timed_out[0]:
            prior_attempts, last_exc = 1, timed_out[1]
        try:
            value, wall, attempts = _run_serial(
                fn, cell_list[i], i, retries,
                prior_attempts=prior_attempts, last_exc=last_exc,
            )
        except SweepCellError as err:
            record_failure(i, err)
        else:
            record(i, value, wall, attempts, "serial")

    assert all(s is not None for s in stats)
    return SweepReport(
        results=results,
        cell_stats=[s for s in stats if s is not None],
        workers=n_workers,
        wall_s=time.perf_counter() - t_start,
        mode=mode,
        failures=failures,
        workers_reaped=workers_reaped,
    )
