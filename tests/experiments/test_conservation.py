"""Conservation invariants over full fabric runs.

Whatever the congestion state, the system must neither lose nor invent
work: every byte counted as delivered was issued, every completion maps
to a submitted request, and device-side counters reconcile with
fabric-side ones.
"""

import pytest

from repro.experiments.runner import BackgroundTraffic, TestbedConfig, run_testbed
from repro.sim.units import MS
from repro.workloads.micro import MicroWorkloadConfig, generate_micro_trace
from tests.conftest import FAST_SSD


@pytest.fixture(scope="module", params=["calm", "congested"])
def run(request):
    trace = generate_micro_trace(
        MicroWorkloadConfig(4_000, 8 * 1024), n_reads=500, n_writes=500, seed=21
    )
    bg = None
    if request.param == "congested":
        bg = BackgroundTraffic(start_ns=0, end_ns=3 * MS, rate_gbps=12.0, n_hosts=8)
    result = run_testbed(
        trace,
        TestbedConfig(n_targets=2, ssd_config=FAST_SSD, driver="ssq", background=bg),
        duration_ns=6 * MS,
    )
    return trace, result


def test_deliveries_bounded_by_issues(run):
    trace, res = run
    n_reads = len(trace.reads())
    n_writes = len(trace.writes())
    delivered_reads = sum(i.reads_completed for i in res.initiators)
    acked_writes = sum(i.writes_completed for i in res.initiators)
    assert delivered_reads <= n_reads
    assert acked_writes <= n_writes


def test_device_completions_bounded_by_received(run):
    _, res = run
    for target in res.targets:
        served = len(target.write_completions) + len(target.read_device_completions)
        assert served <= target.commands_received


def test_read_bytes_conserved(run):
    trace, res = run
    issued_read_bytes = trace.reads().total_bytes()
    delivered = sum(b for i in res.initiators for _, b in i.read_deliveries)
    assert delivered <= issued_read_bytes


def test_initiator_accounting_consistent(run):
    _, res = run
    for ini in res.initiators:
        assert ini.outstanding() >= 0
        assert ini.reads_completed == len(ini.read_deliveries)
        assert ini.writes_completed == len(ini.write_acks)


def test_fetch_counts_match_submissions(run):
    _, res = run
    for target in res.targets:
        driver = target.driver
        assert driver.fetched <= driver.submitted
        assert driver.submitted - driver.fetched == driver.queued()
