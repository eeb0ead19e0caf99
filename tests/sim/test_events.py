"""EventQueue ordering and cancellation tests."""

from unittest import mock

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.sim import events
from repro.sim.engine import Simulator
from repro.sim.events import EventQueue


def _sim_and_queue():
    """A simulator and its queue.

    The engine's run loop is the queue's only consumer, so these tests
    push onto the queue and drain it through :meth:`Simulator.run`.
    """
    sim = Simulator(sanitize=False)
    return sim, sim._queue


def test_pop_returns_events_in_time_order():
    sim, q = _sim_and_queue()
    fired = []
    q.push(30, fired.append, 30)
    q.push(10, fired.append, 10)
    q.push(20, fired.append, 20)
    sim.run()
    assert fired == [10, 20, 30]


def test_same_time_events_pop_in_insertion_order():
    sim, q = _sim_and_queue()
    order = []
    for i in range(5):
        q.push(100, order.append, i)
    sim.run()
    assert order == [0, 1, 2, 3, 4]


def test_cancelled_events_are_skipped():
    sim, q = _sim_and_queue()
    fired = []
    q.push(10, fired.append, "keep")
    drop = q.push(5, fired.append, "drop")
    drop.cancel()
    assert sim.run() == 1
    assert fired == ["keep"]
    assert len(q) == 0 and q._dead == 0


def test_len_excludes_cancelled():
    q = EventQueue()
    a = q.push(1, lambda: None)
    q.push(2, lambda: None)
    assert len(q) == 2
    a.cancel()
    assert len(q) == 1


def test_negative_time_rejected():
    with pytest.raises(ValueError):
        EventQueue().push(-1, lambda: None)


@given(st.lists(st.integers(min_value=0, max_value=10**9), min_size=1, max_size=200))
def test_pop_order_is_sorted_property(times):
    sim, q = _sim_and_queue()
    popped = []
    for t in times:
        q.push(t, lambda: popped.append(sim.now))
    sim.run()
    assert popped == sorted(times)


@given(
    st.lists(st.integers(min_value=0, max_value=1000), min_size=2, max_size=100),
    st.data(),
)
def test_cancellation_never_pops_cancelled(times, data):
    sim, q = _sim_and_queue()
    popped = []
    events = [q.push(t, popped.append, i) for i, t in enumerate(times)]
    to_cancel = data.draw(
        st.sets(st.integers(min_value=0, max_value=len(events) - 1), max_size=len(events))
    )
    for i in to_cancel:
        events[i].cancel()
    sim.run()
    assert not to_cancel & set(popped)
    assert len(popped) == len(events) - len(to_cancel)


def test_push_with_args_binds_them_to_the_event():
    sim, q = _sim_and_queue()
    seen = []
    ev = q.push(5, lambda a, b: seen.append((a, b)), "x", 2)
    assert ev.args == ("x", 2)
    sim.run()
    assert seen == [("x", 2)]


def test_cancel_after_pop_is_a_noop():
    sim, q = _sim_and_queue()
    ev = q.push(1, lambda: None)
    sim.run()
    ev.cancel()  # already dispatched; must not corrupt the counters
    assert len(q) == 0
    q.push(2, lambda: None)
    assert len(q) == 1


def test_double_cancel_counts_once():
    sim, q = _sim_and_queue()
    fired = []
    ev = q.push(1, fired.append, 1)
    q.push(2, fired.append, 2)
    ev.cancel()
    ev.cancel()
    assert len(q) == 1
    sim.run()
    assert fired == [2]
    assert len(q) == 0 and q._dead == 0


def test_compaction_removes_dead_entries_from_the_heap():
    sim, q = _sim_and_queue()
    popped = []
    events = [q.push(t, lambda: popped.append(sim.now)) for t in range(200)]
    for ev in events[:150]:
        ev.cancel()
    # Dead entries crossed the compaction threshold along the way, so
    # the raw heap must have been rebuilt: it cannot still hold all 150
    # cancelled entries, and what remains is live + the sub-threshold
    # dead tail.
    assert len(q) == 50
    assert len(q._heap) < 150
    assert len(q._heap) - q._dead == 50
    sim.run()
    assert popped == list(range(150, 200))


def test_compaction_preserves_same_time_insertion_order():
    sim, q = _sim_and_queue()
    order = []
    keep = []
    for i in range(100):
        keep.append(q.push(7, order.append, i))
        q.push(7, lambda: None).cancel()  # interleave dead entries
    # Force well past the compaction threshold.
    for _ in range(50):
        q.push(7, lambda: None).cancel()
    sim.run()
    assert order == list(range(100))


class _NaiveQueue:
    """Reference model: a sorted list that never compacts.

    Same semantics as :class:`EventQueue` — dispatch in ``(time, seq)``
    order, cancelled entries silently skipped — implemented the obvious
    O(n log n) way.  The property test interleaves pushes, cancels,
    engine runs and forced compactions on the real queue and asserts
    both models observe the identical dispatch sequence.
    """

    def __init__(self):
        self.entries = []  # (time, seq, event_id, kind)
        self.cancelled = set()
        self.seq = 0

    def push(self, time, event_id, kind):
        self.entries.append((time, self.seq, event_id, kind))
        self.seq += 1

    def cancel(self, event_id):
        self.cancelled.add(event_id)

    def pop(self):
        live = [e for e in self.entries if e[2] not in self.cancelled]
        if not live:
            return None
        entry = min(live)
        self.entries.remove(entry)
        return entry[2]

    def pop_until(self, time):
        """Pop every live entry due at or before ``time``, in order."""
        popped = []
        while True:
            live = [e for e in self.entries if e[2] not in self.cancelled]
            if not live or min(live)[0] > time:
                return popped
            popped.append(self.pop())

    def live_count(self):
        return len([e for e in self.entries if e[2] not in self.cancelled])


@given(st.data())
def test_compact_matches_naive_reference_heap(data):
    """Interleaved push/cancel/run/compact == a queue that never compacts.

    Times are drawn from a tiny range so same-timestamp runs (and
    cancellations *inside* them) are the norm, not the exception —
    compaction must rebuild exactly the uncompacted dispatch order even
    when every surviving key ties on time and only the sequence number
    discriminates.  Anonymous entries (never cancellable, pushed with
    ``Simulator.schedule_at_anon``) are mixed in, as in the real engine
    heap.  The ``run`` op and the final drain check the engine's
    dispatch loop against the reference, and ``len(q)`` (derived from
    the raw heap size and the dead-entry count) is checked after every
    op.  The auto-compaction threshold is
    lowered from 64 dead entries to 4 so that cancels inside a
    120-op run reach the compaction ``Event.cancel`` triggers, not only
    the forced one.
    """
    with mock.patch.object(events, "_COMPACT_MIN_DEAD", 4):
        _check_against_reference(data)


def _check_against_reference(data):
    sim = Simulator(sanitize=False)
    q = sim._queue
    ref = _NaiveQueue()
    handles = {}  # event_id -> Event (handled pushes only)
    fired = []  # event ids in engine dispatch order
    next_id = 0
    n_ops = data.draw(st.integers(min_value=1, max_value=120), label="n_ops")
    for _ in range(n_ops):
        choices = ["push", "push_anon", "compact", "run"]
        if handles:
            choices.append("cancel")
        op = data.draw(st.sampled_from(choices), label="op")
        if op == "push":
            t = data.draw(st.integers(min_value=0, max_value=3), label="t")
            event_id = next_id
            next_id += 1
            handles[event_id] = q.push(t, fired.append, event_id)
            ref.push(t, event_id, "handled")
        elif op == "push_anon":
            # The engine refuses an anonymous event in the past.
            t = data.draw(st.integers(min_value=sim.now, max_value=3), label="t")
            event_id = next_id
            next_id += 1
            sim.schedule_at_anon(t, fired.append, event_id)
            ref.push(t, event_id, "anon")
        elif op == "cancel":
            event_id = data.draw(
                st.sampled_from(sorted(handles)), label="cancel_id"
            )
            handles.pop(event_id).cancel()  # double-cancel is covered elsewhere
            ref.cancel(event_id)
        elif op == "compact":
            q._compact()
            assert q._dead == 0
        else:  # run
            t = data.draw(st.integers(min_value=0, max_value=3), label="t")
            fired.clear()
            sim.run(until=t)
            assert fired == ref.pop_until(t)
        assert len(q) == ref.live_count()
    # Drain: the full remaining dispatch order must match the reference.
    fired.clear()
    sim.run()
    expected_drain = []
    while (event_id := ref.pop()) is not None:
        expected_drain.append(event_id)
    assert fired == expected_drain
