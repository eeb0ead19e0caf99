"""Integrated testbed runner (scaled-down smoke + semantics tests)."""

from collections import Counter

import pytest

import repro.experiments.runner as runner
from repro.experiments.runner import (
    BackgroundTraffic,
    TestbedConfig,
    run_testbed,
)
from repro.fabric.initiator import Initiator
from repro.sim.engine import Simulator
from repro.sim.units import MS
from repro.workloads.micro import MicroWorkloadConfig, generate_micro_trace
from repro.workloads.request import IORequest, OpType
from repro.workloads.traces import Trace
from tests.conftest import FAST_SSD


def small_trace(n=120, inter=20_000, size=8 * 1024, seed=5):
    wl = MicroWorkloadConfig(inter, size)
    return generate_micro_trace(wl, n_reads=n, n_writes=n, seed=seed)


def base_config(**kw):
    defaults = dict(
        n_initiators=1,
        n_targets=2,
        ssd_config=FAST_SSD,
        driver="default",
        src_enabled=False,
    )
    defaults.update(kw)
    return TestbedConfig(**defaults)


def test_run_produces_throughput_both_directions():
    res = run_testbed(small_trace(), base_config(), bin_ns=MS)
    assert res.read_series.gbps.sum() > 0
    assert res.write_series.gbps.sum() > 0
    assert res.aggregated_series.gbps.sum() == pytest.approx(
        res.read_series.gbps.sum() + res.write_series.gbps.sum()
    )


def test_all_requests_complete_with_drain_margin():
    trace = small_trace()
    n = len(trace)
    res = run_testbed(trace, base_config(), drain_margin_ns=50 * MS)
    done = sum(i.reads_completed + i.writes_completed for i in res.initiators)
    assert done == n


def test_requests_split_across_targets():
    res = run_testbed(small_trace(), base_config(n_targets=2))
    received = [t.commands_received for t in res.targets]
    assert received[0] > 0 and received[1] > 0
    assert abs(received[0] - received[1]) <= 1


def test_multiple_initiators():
    res = run_testbed(small_trace(), base_config(n_initiators=2))
    sent = [i.requests_sent for i in res.initiators]
    assert all(s > 0 for s in sent)


def test_ssq_driver_option():
    res = run_testbed(small_trace(), base_config(driver="ssq"))
    from repro.nvme.ssq import SSQDriver

    assert all(isinstance(d, SSQDriver) for t in res.targets for d in t.drivers)


def test_src_requires_tpm():
    with pytest.raises(ValueError):
        run_testbed(small_trace(), base_config(driver="ssq", src_enabled=True))


def test_src_attaches_controllers(tiny_tpm):
    res = run_testbed(
        small_trace(), base_config(driver="ssq", src_enabled=True), tpm=tiny_tpm
    )
    assert len(res.controllers) == 2
    assert all(c.monitor.observed > 0 for c in res.controllers)


def test_background_traffic_creates_congestion_signals(tiny_tpm):
    bg = BackgroundTraffic(start_ns=0, end_ns=3 * MS, rate_gbps=45.0, n_hosts=3)
    res = run_testbed(
        small_trace(n=200, inter=10_000),
        base_config(background=bg),
        duration_ns=3 * MS,
    )
    assert len(res.pause_times_ns) > 0


def test_pause_counts_binning():
    bg = BackgroundTraffic(start_ns=0, end_ns=2 * MS, rate_gbps=45.0, n_hosts=3)
    res = run_testbed(
        small_trace(n=200, inter=10_000), base_config(background=bg), duration_ns=2 * MS
    )
    times, counts = res.pause_counts_per_ms()
    assert counts.sum() == len(res.pause_times_ns)


def test_trimmed_metrics_accessible():
    res = run_testbed(small_trace(), base_config())
    assert res.trimmed_aggregated_gbps() == pytest.approx(
        res.trimmed_read_gbps() + res.trimmed_write_gbps(), rel=1e-9
    )


def test_validation():
    with pytest.raises(ValueError):
        TestbedConfig(n_initiators=0)
    with pytest.raises(ValueError):
        TestbedConfig(driver="bogus")
    with pytest.raises(ValueError):
        TestbedConfig(driver="default", src_enabled=True)
    with pytest.raises(ValueError):
        BackgroundTraffic(start_ns=10, end_ns=10, rate_gbps=1.0)
    with pytest.raises(ValueError):
        BackgroundTraffic(start_ns=0, end_ns=10, rate_gbps=1.0, n_hosts=0)
    with pytest.raises(ValueError):
        run_testbed(Trace([]), base_config())


def test_profiled_sites_are_stable_labels(monkeypatch):
    trace = small_trace(n=100, inter=10_000)
    bg = BackgroundTraffic(start_ns=0, end_ns=2 * MS, rate_gbps=45.0, n_hosts=3)
    monkeypatch.setattr(runner, "Simulator", lambda: Simulator(trace=True))
    res = run_testbed(trace, base_config(background=bg), duration_ns=3 * MS)
    sites = Counter(name for _, name in res.sim.dispatch_log)
    assert not [name for name in sites if " at 0x" in name]
    assert sites["Initiator.issue"] == len(trace)
    assert sites["_BackgroundFeeder"] > 0


def paced_trace(n, gap_ns=50_000):
    """``n`` requests far enough apart that each finishes before the next."""
    return Trace(
        IORequest(
            arrival_ns=k * gap_ns,
            op=OpType.READ if k % 2 else OpType.WRITE,
            lba=8 * k,
            size_bytes=8 * 1024,
        )
        for k in range(n)
    )


def peak_pending_at_issue(monkeypatch, trace):
    """Most events pending when an arrival is issued during ``trace``."""
    pending = []
    issue = Initiator.issue

    def recording_issue(self, request):
        pending.append(self.sim.pending())
        issue(self, request)

    monkeypatch.setattr(Initiator, "issue", recording_issue)
    run_testbed(trace, base_config())
    assert len(pending) == len(trace)
    return max(pending)


def test_heap_depth_does_not_grow_with_trace_length(monkeypatch):
    # The arrival trace is one heap slot, so the heap at each arrival
    # holds the model's working set, the same for 200 requests as for
    # 2,000; one push per request would leave every later one pending.
    few = peak_pending_at_issue(monkeypatch, paced_trace(200))
    many = peak_pending_at_issue(monkeypatch, paced_trace(2000))
    assert few == many < 20
