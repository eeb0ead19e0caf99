"""Site-counting observer, bench scenarios, cProfile wrapper."""

import json

import pytest

from repro.faults import StuckIOError
from repro.profiling import (
    EngineProfile,
    SiteCounter,
    engine_microbench,
    incast_outputs,
    run_incast_cell,
    run_with_cprofile,
)
from repro.sim.engine import Simulator
from repro.sim.units import US


def _profiled() -> tuple[Simulator, SiteCounter]:
    sim = Simulator(sanitize=False)
    return sim, SiteCounter().attach(sim)


def test_instrumented_simulator_counts_callback_sites():
    sim, sites = _profiled()

    def tick():
        if sim.now < 50:
            sim.schedule(10, tick)

    def tock(_arg):
        pass

    sim.schedule(10, tick)
    sim.schedule(25, tock, "x")
    sim.run()
    prof = sites.profile(sim, wall_s=0.25)
    assert prof.events_dispatched == 6
    assert prof.site_counts[tick.__qualname__] == 5
    assert prof.site_counts[tock.__qualname__] == 1
    assert prof.sim_end_ns == sim.now
    assert prof.heap_high_water == 1  # one other event pending at each dispatch
    assert prof.wall_s == 0.25


def test_heap_high_water_is_peak_pending_at_a_dispatch():
    sim, sites = _profiled()
    for t in range(10):
        sim.schedule(t, lambda: None)
    sim.schedule(20, lambda: None).cancel()  # a dead entry is not pending
    sim.run()
    # The first dispatch leaves the other nine live events pending.
    assert sites.profile(sim, wall_s=1.0).heap_high_water == 9


def test_instrumented_run_matches_plain_engine():
    def drive(sim):
        order = []

        def hop(tag):
            order.append((sim.now, tag))
            if len(order) < 20:
                sim.schedule(3, hop, tag + 1)

        sim.schedule(1, hop, 0)
        ev = sim.schedule(2, hop, 99)
        ev.cancel()
        sim.run(until=100)
        return order, sim.now, sim.events_dispatched

    assert drive(Simulator()) == drive(_profiled()[0])


def test_profiled_drained_run_calls_the_watchdog(monkeypatch):
    """A wedged model under the profiler raises ``StuckIOError``."""
    from tests.faults.test_watchdog import build_cell

    monkeypatch.delenv("REPRO_SANITIZE", raising=False)  # no sanitizer observer
    sim, ini, _ = build_cell(lossy=True)
    SiteCounter().attach(sim)
    with pytest.raises(StuckIOError):
        sim.run()  # heap drains with commands still in flight
    assert ini.outstanding() == 3


def test_engine_profile_as_dict_and_format():
    prof = EngineProfile(
        events_dispatched=100,
        wall_s=0.5,
        heap_high_water=12,
        sim_end_ns=999,
        site_counts={"a.b": 60, "c.d": 40},
    )
    d = prof.as_dict()
    assert d["events_per_sec"] == 200
    assert d["site_counts"] == {"a.b": 60, "c.d": 40}
    json.dumps(d)  # JSON-ready
    text = prof.format(top=1)
    assert "a.b" in text and "c.d" not in text
    assert prof.top_sites(5) == [("a.b", 60), ("c.d", 40)]


def test_engine_microbench_result_sane():
    result = engine_microbench(n_events=2_000, n_chains=4)
    # Cancelled decoys mean dispatched lands just under the target.
    assert result.events >= 1_500
    assert result.wall_s > 0
    assert result.events_per_sec > 0
    d = result.as_dict()
    assert d["events"] == result.events


def test_incast_cell_runs_and_reports_outputs():
    result, sim, net = run_incast_cell(n_senders=2, duration_ns=100 * US)
    assert result.events > 0
    outputs = incast_outputs(net)
    assert outputs["bytes_received"] > 0
    assert set(outputs["final_rate_gbps"]) == {"s0", "s1"}


def test_run_with_cprofile_returns_result_and_report():
    result, report = run_with_cprofile(lambda: sum(range(1000)), top=5)
    assert result == 499500
    assert "function calls" in report
