"""Instrumenting a run without a profiler hook, and the in-cast cell.

Per-callback-site counts come from a traced run's ``dispatch_log`` and
heap depth from ``sim.pending()`` sampled where a test needs it; both
leave the run itself unchanged.
"""

from collections import Counter

from repro.profiling.bench import incast_outputs, run_incast_cell
from repro.sim.engine import Simulator
from repro.sim.units import US


def test_instrumented_simulator_counts_callback_sites():
    sim = Simulator(trace=True)

    def tick():
        if sim.now < 50:
            sim.schedule(10, tick)

    def tock(_arg):
        pass

    sim.schedule(10, tick)
    sim.schedule(25, tock, "x")
    sim.run()
    sites = Counter(name for _, name in sim.dispatch_log)
    assert sim.events_dispatched == 6
    assert sites[tick.__qualname__] == 5
    assert sites[tock.__qualname__] == 1


def test_heap_high_water_is_peak_pending_at_a_dispatch():
    sim = Simulator()
    pending = []
    for t in range(10):
        sim.schedule(t, lambda: pending.append(sim.pending()))
    sim.schedule(20, lambda: None).cancel()  # a dead entry is not pending
    sim.run()
    # The first dispatch leaves the other nine live events pending.
    assert max(pending) == 9


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

    plain = drive(Simulator(sanitize=False))
    assert plain == drive(Simulator(trace=True, sanitize=True))


def test_incast_cell_runs_and_reports_outputs():
    sim, net = run_incast_cell(n_senders=2, duration_ns=100 * US)
    assert sim.events_dispatched > 0
    outputs = incast_outputs(net)
    assert outputs["bytes_received"] > 0
    assert set(outputs["final_rate_gbps"]) == {"s0", "s1"}
