"""Process-pool sweep executor: ordering, determinism, fallback, retry."""

import os
import signal
import time

import pytest

from repro.parallel import (
    SweepCellError,
    SweepReport,
    cell_seed,
    resolve_workers,
    run_cells,
)

# Cell functions must be module-level so the pool path can pickle them.


def square_cell(x):
    return {"v": x * x, "sim_events": x}


def slow_cell(x):
    time.sleep(0.8)
    return {"v": x}


def failing_cell(x):
    raise ValueError(f"cell {x} always fails")


def odd_failing_cell(x):
    if x % 2:
        raise ValueError(f"cell {x} fails")
    return {"v": x * x, "sim_events": x}


def pool_killer_cell(x, parent_pid):
    # Cell 3 SIGKILLs its pool worker (the OOM-killer case) but runs
    # cleanly in the parent process, i.e. on the serial fallback.
    if x == 3 and os.getpid() != parent_pid:
        os.kill(os.getpid(), signal.SIGKILL)
    return {"v": x * x, "sim_events": x}


_FLAKY_CALLS = {"n": 0}


def flaky_cell(x):
    # Serial path only (module global would not propagate from a pool
    # worker): fails on the first attempt, succeeds on the retry.
    _FLAKY_CALLS["n"] += 1
    if _FLAKY_CALLS["n"] == 1:
        raise RuntimeError("transient")
    return {"v": x}


class TestCellSeed:
    def test_deterministic(self):
        assert cell_seed(42, 7) == cell_seed(42, 7)

    def test_varies_with_index_and_root(self):
        seeds = {cell_seed(0, i) for i in range(100)}
        assert len(seeds) == 100
        assert cell_seed(1, 0) != cell_seed(2, 0)

    def test_range_and_validation(self):
        assert 0 <= cell_seed(123456789, 987654) < 2**31
        with pytest.raises(ValueError):
            cell_seed(0, -1)


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
        assert report.n_cells == 6

    def test_perf_counters(self):
        report = run_cells(square_cell, [(i,) for i in range(4)], workers=1)
        assert report.sim_events == 0 + 1 + 2 + 3
        assert report.cell_wall_s <= report.wall_s
        assert 0.0 <= report.utilization() <= 1.0
        d = report.perf_dict()
        assert d["n_cells"] == 4 and d["workers"] == 1

    def test_progress_in_order(self):
        calls = []
        run_cells(
            square_cell,
            [(i,) for i in range(3)],
            workers=1,
            progress=lambda d, t: calls.append((d, t)),
        )
        assert calls == [(1, 3), (2, 3), (3, 3)]

    def test_retry_then_success(self):
        _FLAKY_CALLS["n"] = 0
        report = run_cells(flaky_cell, [(5,)], workers=1, retries=1)
        assert report.results[0] == {"v": 5}
        assert report.cell_stats[0].attempts == 2

    def test_exhausted_retries_raise(self):
        with pytest.raises(SweepCellError) as excinfo:
            run_cells(failing_cell, [(0,), (1,)], workers=1, retries=2)
        assert excinfo.value.index == 0
        assert excinfo.value.attempts == 3
        assert isinstance(excinfo.value.cause, ValueError)

    def test_empty_sweep(self):
        report = run_cells(square_cell, [], workers=4)
        assert report.results == []
        assert report.n_cells == 0


class TestPool:
    def test_matches_serial_bit_for_bit(self):
        cells = [(i,) for i in range(8)]
        serial = run_cells(square_cell, cells, workers=1)
        pooled = run_cells(square_cell, cells, workers=2)
        assert pooled.results == serial.results
        assert pooled.mode in ("pool", "serial")  # serial if pool unavailable

    def test_cell_failure_retried_serially(self):
        # A failing cell inside the pool is retried in-process; with the
        # failure deterministic it exhausts retries and aborts loudly.
        with pytest.raises(SweepCellError):
            run_cells(failing_cell, [(0,), (1,)], workers=2, retries=0)

    def test_timeout_falls_back_to_serial(self):
        report = run_cells(
            slow_cell, [(1,), (2,)], workers=2, timeout_s=0.05
        )
        # All results present despite the timed-out pool path.
        assert [r["v"] for r in report.results] == [1, 2]
        assert report.mode in ("pool+serial-fallback", "serial")

    def test_timeout_reaps_orphaned_workers(self):
        report = run_cells(
            slow_cell, [(1,), (2,), (3,)], workers=2, timeout_s=0.05
        )
        if report.mode == "serial":
            pytest.skip("process pool unavailable on this platform")
        # The abandoned pool's workers were still sleeping when the
        # timeout fired; they must be terminated, not orphaned.
        assert report.workers_reaped >= 1
        assert report.perf_dict()["workers_reaped"] == report.workers_reaped
        assert [r["v"] for r in report.results] == [1, 2, 3]

    def test_timeout_exhaustion_recorded_with_kind(self):
        # retries=0: the pool-side kill consumes the victim's whole
        # attempt budget, so record mode quarantines it as a timeout.
        report = run_cells(
            slow_cell, [(1,), (2,)], workers=2, timeout_s=0.05,
            retries=0, on_error="record",
        )
        if report.mode == "serial":
            pytest.skip("process pool unavailable on this platform")
        assert report.n_failed == 1
        victim = report.failures[0]
        assert victim.kind == "timeout"
        assert victim.attempts == 1
        assert report.results[victim.index] is None
        # The non-victim cell still completed via the serial fallback.
        other = 1 - victim.index
        assert report.results[other] == {"v": other + 1}

    def test_broken_pool_charges_no_cell(self):
        # A dead worker fails every uncollected future with the same
        # BrokenProcessPool; no cell may be blamed for it.  Every
        # uncollected cell reruns serially with its full budget, so
        # even retries=0 in record mode loses no result.
        cells = [(i, os.getpid()) for i in range(6)]
        serial = run_cells(pool_killer_cell, cells, workers=1)
        report = run_cells(
            pool_killer_cell, cells, workers=3, retries=0, on_error="record"
        )
        if report.mode == "serial":
            pytest.skip("process pool unavailable on this platform")
        assert report.results == serial.results
        assert report.failures == []
        assert report.mode == "pool+serial-fallback"

    def test_report_stats_cover_every_cell(self):
        report = run_cells(square_cell, [(i,) for i in range(5)], workers=3)
        assert sorted(s.index for s in report.cell_stats) == list(range(5))
        assert all(s.attempts >= 1 for s in report.cell_stats)


class TestRecordMode:
    def test_failures_recorded_not_raised(self):
        report = run_cells(
            odd_failing_cell, [(i,) for i in range(6)], workers=1,
            retries=1, on_error="record",
        )
        assert report.n_failed == 3
        assert [f.index for f in report.failures] == [1, 3, 5]
        for f in report.failures:
            assert f.attempts == 2  # 1 + retries
            assert "ValueError" in f.error and "fails" in f.error
        # Healthy cells still produced results; failed slots hold None.
        assert [r["v"] if r else None for r in report.results] == [
            0, None, 4, None, 16, None,
        ]
        assert {s.mode for s in report.cell_stats if s.index % 2} == {"failed"}

    def test_record_mode_on_pool_path(self):
        report = run_cells(
            odd_failing_cell, [(i,) for i in range(6)], workers=2,
            retries=0, on_error="record",
        )
        assert report.n_failed == 3
        assert sorted(s.index for s in report.cell_stats) == list(range(6))
        assert report.perf_dict()["n_failed"] == 3

    def test_default_still_raises(self):
        with pytest.raises(SweepCellError):
            run_cells(failing_cell, [(0,)], workers=1, retries=0)

    def test_invalid_on_error_rejected(self):
        with pytest.raises(ValueError, match="on_error"):
            run_cells(square_cell, [(1,)], on_error="ignore")


def test_sweep_report_zero_division_guards():
    report = SweepReport(results=[], cell_stats=[], workers=0, wall_s=0.0, mode="serial")
    assert report.events_per_sec() == 0.0
    assert report.utilization() == 0.0


def test_cell_failure_default_kind_is_exception():
    report = run_cells(
        failing_cell, [(0,)], workers=1, retries=0, on_error="record"
    )
    assert report.failures[0].kind == "exception"
