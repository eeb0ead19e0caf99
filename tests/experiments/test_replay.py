"""Device-local replay harness tests."""

import gc

import pytest

from repro.experiments.replay import replay_on_device
from repro.nvme.driver import DefaultNvmeDriver
from repro.nvme.ssq import SSQDriver
from repro.workloads.micro import MicroWorkloadConfig, generate_micro_trace
from repro.workloads.traces import Trace
from tests.conftest import FAST_SSD


def trace(inter=3_000, size=8 * 1024, n=150, seed=1):
    wl = MicroWorkloadConfig(inter, size)
    return generate_micro_trace(wl, n_reads=n, n_writes=n, seed=seed)


def test_drained_run_completes_everything():
    t = trace()
    result = replay_on_device(t, FAST_SSD, DefaultNvmeDriver(), drain=True)
    assert result.reads_completed + result.writes_completed >= int(0.8 * len(t))
    assert result.ssd.controller.commands_completed == len(t)


def test_throughputs_positive():
    result = replay_on_device(trace(), FAST_SSD, SSQDriver())
    assert result.read_tput_gbps > 0
    assert result.write_tput_gbps > 0
    assert result.aggregated_tput_gbps == pytest.approx(
        result.read_tput_gbps + result.write_tput_gbps
    )


def test_no_drain_stops_at_last_arrival():
    t = trace()
    result = replay_on_device(t, FAST_SSD, DefaultNvmeDriver(), drain=False)
    assert result.ssd.sim.now == t[-1].arrival_ns


def test_weight_ratio_shapes_throughput():
    t = trace(inter=2_000, size=12 * 1024, n=400, seed=2)
    base = replay_on_device(t, FAST_SSD, SSQDriver(1, 1), drain=False,
                            measure_start_fraction=0.4)
    skewed = replay_on_device(t, FAST_SSD, SSQDriver(1, 8), drain=False,
                              measure_start_fraction=0.4)
    assert skewed.read_tput_gbps < base.read_tput_gbps
    assert skewed.write_tput_gbps >= base.write_tput_gbps * 0.9


def test_measure_start_fraction_validation():
    with pytest.raises(ValueError):
        replay_on_device(trace(n=10), FAST_SSD, SSQDriver(), measure_start_fraction=1.0)


def test_empty_trace_rejected():
    with pytest.raises(ValueError):
        replay_on_device(Trace([]), FAST_SSD, SSQDriver())


def test_deterministic():
    a = replay_on_device(trace(seed=3), FAST_SSD, SSQDriver(1, 2), drain=False)
    b = replay_on_device(trace(seed=3), FAST_SSD, SSQDriver(1, 2), drain=False)
    assert a.read_tput_gbps == b.read_tput_gbps
    assert a.write_tput_gbps == b.write_tput_gbps


def test_drained_world_is_freed_by_reference_counting(monkeypatch):
    # The sanitizer's registry is itself a reference cycle.
    monkeypatch.delenv("REPRO_SANITIZE", raising=False)
    t = trace()
    gc.collect()
    gc.disable()
    try:
        result = replay_on_device(t, FAST_SSD, SSQDriver(1, 2), drain=True)
        assert result.ssd.controller.commands_completed == len(t)
        del result
        assert gc.collect() == 0
        # Stopped at the last arrival, with events and flash
        # transactions still pending: those are dropped, not left in
        # reference cycles.
        result = replay_on_device(t, FAST_SSD, SSQDriver(1, 2), drain=False)
        assert result.ssd.controller.commands_completed < len(t)
        del result
        assert gc.collect() == 0
    finally:
        gc.enable()
