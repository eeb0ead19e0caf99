"""Training-sample collection tests."""

import dataclasses
import hashlib

import numpy as np
import pytest

from repro.core.sampling import (
    SamplingPlan,
    TrainingSet,
    _micro_trace,
    _sample_cell,
    _sweep_cells,
    collect_training_set,
    collect_training_set_with_report,
)
from repro.experiments.replay import replay_on_device
from repro.nvme.ssq import SSQDriver
from repro.workloads.features import FEATURE_NAMES, extract_features
from repro.workloads.micro import MicroWorkloadConfig, generate_micro_trace
from tests.conftest import FAST_SSD

TINY_PLAN = SamplingPlan(
    interarrival_ns=(3_000,),
    size_bytes=(8 * 1024,),
    weight_ratios=(1, 4),
    read_write_mixes=(1.0,),
    duration_ns=2_000_000,
    min_requests=100,
)


class TestPlan:
    def test_n_cells(self):
        assert TINY_PLAN.n_cells() == 2
        assert SamplingPlan().n_cells() == 5 * 3 * 7 * 2

    def test_requests_for_duration(self):
        plan = SamplingPlan(duration_ns=10_000_000)
        assert plan.requests_for(10_000) == 1000
        assert plan.requests_for(10**9) == plan.min_requests

    def test_validation(self):
        with pytest.raises(ValueError):
            SamplingPlan(weight_ratios=())
        with pytest.raises(ValueError):
            SamplingPlan(weight_ratios=(0,))
        with pytest.raises(ValueError):
            SamplingPlan(duration_ns=0)
        with pytest.raises(ValueError):
            SamplingPlan(read_write_mixes=(0.0,))


class TestTrainingSet:
    def make(self, n=4):
        X = np.zeros((n, len(FEATURE_NAMES)))
        y = np.zeros((n, 2))
        return TrainingSet(X=X, y=y)

    def test_len(self):
        assert len(self.make(5)) == 5

    def test_merge(self):
        merged = self.make(3).merge(self.make(2))
        assert len(merged) == 5

    def test_validation(self):
        with pytest.raises(ValueError):
            TrainingSet(X=np.zeros((3, 2)), y=np.zeros((3, 2)))  # width
        with pytest.raises(ValueError):
            TrainingSet(X=np.zeros((3, len(FEATURE_NAMES))), y=np.zeros((2, 2)))
        with pytest.raises(ValueError):
            TrainingSet(X=np.zeros((3, len(FEATURE_NAMES))), y=np.zeros((3, 3)))


class TestCollection:
    def test_collect_shapes_and_feature_order(self):
        ts = collect_training_set(FAST_SSD, TINY_PLAN)
        assert len(ts) == 2
        assert ts.X.shape[1] == len(FEATURE_NAMES)
        assert ts.feature_names == FEATURE_NAMES
        # Weight ratio is the last column and matches the plan.
        assert sorted(ts.X[:, -1].tolist()) == [1.0, 4.0]

    def test_throughputs_positive_under_saturation(self):
        ts = collect_training_set(FAST_SSD, TINY_PLAN)
        assert np.all(ts.y > 0)

    def test_higher_weight_lowers_read_throughput(self):
        ts = collect_training_set(FAST_SSD, TINY_PLAN)
        by_w = {ts.X[i, -1]: ts.y[i, 0] for i in range(len(ts))}
        assert by_w[4.0] < by_w[1.0]

    def test_extra_traces_sampled(self):
        wl = MicroWorkloadConfig(3_000, 8 * 1024)
        trace = generate_micro_trace(wl, n_reads=300, n_writes=300, seed=2)
        ts = collect_training_set(
            FAST_SSD, None, traces=[trace], weight_ratios=(1, 2)
        )
        assert len(ts) == 2

    def test_progress_callback(self):
        calls = []
        collect_training_set(
            FAST_SSD, TINY_PLAN, progress=lambda d, t: calls.append((d, t))
        )
        assert calls == [(1, 2), (2, 2)]

    def test_ratio_below_one_is_rejected(self):
        wl = MicroWorkloadConfig(3_000, 8 * 1024)
        trace = generate_micro_trace(wl, n_reads=50, n_writes=50, seed=4)
        with pytest.raises(ValueError):
            collect_training_set(FAST_SSD, None, traces=[trace], weight_ratios=(0,))

    def test_serial_sweep_leaves_caller_trace_untouched(self):
        wl = MicroWorkloadConfig(3_000, 8 * 1024)
        trace = generate_micro_trace(wl, n_reads=200, n_writes=200, seed=5)
        before = [dataclasses.astuple(r) for r in trace]
        collect_training_set(
            FAST_SSD, None, traces=[trace], weight_ratios=(1, 2), workers=1
        )
        assert [dataclasses.astuple(r) for r in trace] == before
        assert all(r.submit_ns == r.fetch_ns == r.device_done_ns == -1 for r in trace)

    def test_cells_match_fresh_trace_replays_in_any_order(self):
        # Cells share one trace's columns; each must equal replaying a
        # freshly generated trace, whatever ran before it.
        cells = _sweep_cells(
            FAST_SSD, TINY_PLAN, [], (), TINY_PLAN.measure_start_fraction
        )
        grid = [
            (inter, size, mix, w)
            for inter in TINY_PLAN.interarrival_ns
            for size in TINY_PLAN.size_bytes
            for mix in TINY_PLAN.read_write_mixes
            for w in TINY_PLAN.weight_ratios
        ]
        assert len(cells) == len(grid) == TINY_PLAN.n_cells()
        for cell, (inter, size, mix, w) in reversed(list(zip(cells, grid))):
            got = _sample_cell(*cell)
            trace = _micro_trace(TINY_PLAN, inter, size, mix)
            want = replay_on_device(
                trace,
                FAST_SSD,
                SSQDriver(read_weight=1, write_weight=w),
                drain=False,
                measure_start_fraction=TINY_PLAN.measure_start_fraction,
            )
            assert got["x"].tobytes() == extract_features(trace).with_weight(w).tobytes()
            assert got["y"].tolist() == [want.read_tput_gbps, want.write_tput_gbps]
            assert got["sim_events"] == want.sim_events

    def test_parallel_collection_matches_serial(self):
        from repro.core.sampling import collect_training_set_with_report

        serial, serial_report = collect_training_set_with_report(
            FAST_SSD, TINY_PLAN, workers=1
        )
        pooled, pool_report = collect_training_set_with_report(
            FAST_SSD, TINY_PLAN, workers=2
        )
        assert np.array_equal(serial.X, pooled.X)
        assert np.array_equal(serial.y, pooled.y)
        assert len(serial_report.results) == TINY_PLAN.n_cells()
        assert serial_report.sim_events == pool_report.sim_events > 0


#: A small plan that still covers both mixes and a saturated and a
#: light inter-arrival: 8 cells of 4 ms on FAST_SSD.
PIN_PLAN = SamplingPlan(
    interarrival_ns=(20_000, 60_000),
    size_bytes=(16 * 1024,),
    weight_ratios=(1, 4),
    read_write_mixes=(1.0, 2.0),
    duration_ns=4_000_000,
    min_requests=10,
)


def test_sweep_output_is_pinned():
    """The sweep's samples and event count, bit for bit.

    A change to the device replay path (driver, controller, flash,
    engine) that adds or drops an event, or moves one measured float,
    fails here.  Floats are hashed by ``repr``, which round-trips them
    exactly.
    """
    ts, report = collect_training_set_with_report(FAST_SSD, PIN_PLAN)
    assert len(ts) == PIN_PLAN.n_cells() == 8
    digest = lambda a: hashlib.sha256(repr(a.tolist()).encode()).hexdigest()
    assert digest(ts.X) == "8fefe5cc7c58af96334f7d16b5072a37190dadf962bc1d8b9acd7c19ac103586"
    assert digest(ts.y) == "1be75cb15737fd9745762bb00704b62abfad4a7f346d46006212f72ebdf72b73"
    assert report.sim_events == 19537
