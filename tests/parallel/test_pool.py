"""Process-pool sweep executor: ordering, determinism, fallback, errors."""

import multiprocessing
import os
import signal

import pytest

from repro.parallel import SweepCellError, resolve_workers, run_cells

# Cell functions must be module-level so the pool path can pickle them.


def square_cell(x):
    return {"v": x * x}


def failing_cell(x):
    raise ValueError(f"cell {x} always fails")


def pool_killer_cell(x, parent_pid):
    # Cell 3 SIGKILLs its pool worker (the OOM-killer case) but runs
    # cleanly in the parent process, i.e. on the serial fallback.
    if x == 3 and os.getpid() != parent_pid:
        os.kill(os.getpid(), signal.SIGKILL)
    return {"v": x * x}


_CALLS = {"n": 0}


def counted_failing_cell(x):
    # Serial path only: a pool worker's module global would not
    # propagate back to the test process.
    _CALLS["n"] += 1
    raise RuntimeError(f"cell {x} fails")


class TestResolveWorkers:
    def test_explicit(self):
        assert resolve_workers(3) == 3

    def test_auto(self):
        assert resolve_workers(None) >= 1
        assert resolve_workers(0) == resolve_workers(None)

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            resolve_workers(-2)


class TestSerial:
    def test_ordered_results(self):
        report = run_cells(square_cell, [(i,) for i in range(6)], workers=1)
        assert [r["v"] for r in report.results] == [i * i for i in range(6)]
        assert report.mode == "serial"
        assert len(report.results) == 6

    def test_progress_in_order(self):
        calls = []
        run_cells(
            square_cell,
            [(i,) for i in range(3)],
            workers=1,
            progress=lambda d, t: calls.append((d, t)),
        )
        assert calls == [(1, 3), (2, 3), (3, 3)]

    def test_raising_cell_runs_once(self):
        # A deterministic cell that raises would raise again: never rerun.
        _CALLS["n"] = 0
        with pytest.raises(SweepCellError):
            run_cells(counted_failing_cell, [(0,)], workers=1)
        assert _CALLS["n"] == 1

    def test_cell_failure_raises(self):
        with pytest.raises(SweepCellError) as excinfo:
            run_cells(failing_cell, [(0,), (1,)], workers=1)
        assert excinfo.value.index == 0
        assert isinstance(excinfo.value.cause, ValueError)

    def test_empty_sweep(self):
        report = run_cells(square_cell, [], workers=4)
        assert report.results == []


class TestPool:
    def test_matches_serial_bit_for_bit(self):
        cells = [(i,) for i in range(8)]
        serial = run_cells(square_cell, cells, workers=1)
        pooled = run_cells(square_cell, cells, workers=2)
        assert pooled.results == serial.results
        assert pooled.mode in ("pool", "serial")  # serial if pool unavailable

    def test_pool_cell_failure_raises(self):
        with pytest.raises(SweepCellError) as excinfo:
            run_cells(failing_cell, [(0,), (1,)], workers=2)
        assert excinfo.value.index == 0
        assert isinstance(excinfo.value.cause, ValueError)

    def test_broken_pool_charges_no_cell(self):
        # A dead worker fails every uncollected future with the same
        # BrokenProcessPool; no cell may be blamed for it (none raises
        # SweepCellError).  Every uncollected cell reruns serially, so
        # the sweep loses no result.
        cells = [(i, os.getpid()) for i in range(6)]
        serial = run_cells(pool_killer_cell, cells, workers=1)
        report = run_cells(pool_killer_cell, cells, workers=3)
        if report.mode == "serial":
            pytest.skip("process pool unavailable on this platform")
        assert report.results == serial.results
        assert report.mode == "pool+serial-fallback"

    def test_broken_pool_leaves_no_live_worker(self):
        # The executor terminates and joins the surviving workers of a
        # broken pool itself; none may outlive the sweep.
        cells = [(i, os.getpid()) for i in range(6)]
        report = run_cells(pool_killer_cell, cells, workers=3)
        if report.mode == "serial":
            pytest.skip("process pool unavailable on this platform")
        assert report.mode == "pool+serial-fallback"
        assert multiprocessing.active_children() == []

