"""Simulator engine semantics."""

import pytest

from repro.sim.engine import MaxEventsExceeded, Simulator
from repro.sim.rng import make_rng, spawn_rngs


def test_clock_starts_at_zero():
    assert Simulator().now == 0


def test_schedule_advances_clock_to_event_time():
    sim = Simulator()
    seen = []
    sim.schedule(100, lambda: seen.append(sim.now))
    sim.run()
    assert seen == [100]
    assert sim.now == 100


def test_run_until_stops_before_later_events():
    sim = Simulator()
    fired = []
    sim.schedule(50, lambda: fired.append(50))
    sim.schedule(150, lambda: fired.append(150))
    sim.run(until=100)
    assert fired == [50]
    assert sim.now == 100  # clock advances to the boundary
    sim.run()
    assert fired == [50, 150]


def test_events_scheduled_during_run_are_dispatched():
    sim = Simulator()
    fired = []

    def cascade():
        fired.append(sim.now)
        if sim.now < 30:
            sim.schedule(10, cascade)

    sim.schedule(10, cascade)
    sim.run()
    assert fired == [10, 20, 30]


def test_schedule_negative_delay_rejected():
    with pytest.raises(ValueError):
        Simulator().schedule(-5, lambda: None)


def test_schedule_at_in_past_rejected():
    sim = Simulator()
    sim.schedule(10, lambda: None)
    sim.run()
    with pytest.raises(ValueError):
        sim.schedule_at(5, lambda: None)


def test_max_events_guards_livelock():
    sim = Simulator()

    def forever():
        sim.schedule(1, forever)

    sim.schedule(1, forever)
    with pytest.raises(RuntimeError, match="max_events"):
        sim.run(max_events=100)


def test_max_events_error_reports_partial_state():
    sim = Simulator()

    def forever():
        sim.schedule(1, forever)
        sim.schedule(1, lambda: None)

    sim.schedule(1, forever)
    with pytest.raises(MaxEventsExceeded) as excinfo:
        sim.run(max_events=50)
    err = excinfo.value
    assert err.max_events == 50
    assert err.dispatched == 50
    assert err.now == sim.now  # snapshot matches the live simulator
    assert err.pending == sim.pending() > 0
    # The simulator stays usable for inspection.
    assert sim.events_dispatched == 50


def test_simulator_continues_after_max_events_error():
    sim = Simulator()
    for i in range(5):
        sim.schedule(i + 1, lambda: None)
    with pytest.raises(MaxEventsExceeded):
        sim.run(max_events=2)
    # Remaining events are still queued and dispatchable.
    assert sim.run() == 3
    assert sim.events_dispatched == 5


def test_run_returns_dispatch_count():
    sim = Simulator()
    for i in range(7):
        sim.schedule(i + 1, lambda: None)
    assert sim.run() == 7
    assert sim.events_dispatched == 7


def test_trace_mode_records_dispatches():
    sim = Simulator(trace=True)

    def named():
        pass

    sim.schedule(5, named)
    sim.run()
    assert sim.dispatch_log == [(5, named.__qualname__)]


def _boom() -> None:
    raise ZeroDivisionError


@pytest.mark.parametrize("kind", ["handled", "anonymous", "series"])
def test_trace_logs_an_event_whose_callback_raised(kind):
    """The line is written before the callback runs, so a failing
    event is the log's last line."""
    sim = Simulator(trace=True)
    if kind == "handled":
        sim.schedule(5, _boom)
    elif kind == "anonymous":
        sim.schedule_anon(5, _boom)
    else:
        sim.schedule_series_at([(5, _boom, ()), (6, _boom, ())])
    with pytest.raises(ZeroDivisionError):
        sim.run()
    assert sim.dispatch_log == [(5, "_boom")]
    assert sim.events_dispatched == 0


def test_pending_counts_live_events():
    sim = Simulator()
    sim.schedule(1, lambda: None)
    ev = sim.schedule(2, lambda: None)
    ev.cancel()
    assert sim.pending() == 1


def test_same_time_events_fifo():
    sim = Simulator()
    order = []
    sim.schedule(10, lambda: order.append("a"))
    sim.schedule(10, lambda: order.append("b"))
    sim.run()
    assert order == ["a", "b"]


class TestRng:
    def test_same_seed_same_stream(self):
        a, b = make_rng(42), make_rng(42)
        assert a.random() == b.random()

    def test_spawned_streams_differ(self):
        rngs = spawn_rngs(1, 3)
        draws = [r.random() for r in rngs]
        assert len(set(draws)) == 3

    def test_spawn_deterministic(self):
        a = [r.random() for r in spawn_rngs(9, 2)]
        b = [r.random() for r in spawn_rngs(9, 2)]
        assert a == b

    def test_spawn_negative_rejected(self):
        with pytest.raises(ValueError):
            spawn_rngs(0, -1)

    def test_spawn_zero_ok(self):
        assert spawn_rngs(0, 0) == []


def test_schedule_passes_extra_args_to_callback():
    sim = Simulator()
    seen = []
    sim.schedule(5, seen.append, "a")
    sim.schedule_at(9, lambda x, y: seen.append(x + y), 1, 2)
    sim.run()
    assert seen == ["a", 3]


def test_trace_mode_records_args_dispatches():
    sim = Simulator(trace=True)

    def named(_tag):
        pass

    sim.schedule(5, named, "t")
    sim.run()
    assert sim.dispatch_log == [(5, named.__qualname__)]


def test_dispatch_order_identical_across_runs_with_cancellations():
    def build():
        sim = Simulator(trace=True)
        pending = []

        def churn(i):
            # Cancel-and-reschedule like DCQCN timers do; enough volume
            # to cross the queue's compaction threshold mid-run.
            for ev in pending:
                ev.cancel()
            pending.clear()
            for j in range(3):
                pending.append(sim.schedule(10 + j, noop, i))
            if i < 60:
                sim.schedule(5, churn, i + 1)

        def noop(_i):
            pass

        sim.schedule(1, churn, 0)
        sim.run()
        return sim.dispatch_log

    assert build() == build()
