"""Congestion events and the workload monitor."""

from dataclasses import astuple

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core.events import CongestionEvent, EventKind
from repro.core.monitor import WorkloadMonitor
from repro.workloads.features import CH_FEATURE_NAMES, extract_features
from repro.workloads.request import IORequest, OpType, _request_ids
from repro.workloads.traces import Trace


def req(size=4096, op=OpType.READ, lba=0):
    return IORequest(arrival_ns=0, op=op, lba=lba, size_bytes=size)


class TestEvents:
    def test_fields(self):
        e = CongestionEvent(100, 5.0, EventKind.PAUSE)
        assert e.time_ns == 100
        assert e.kind is EventKind.PAUSE

    def test_validation(self):
        with pytest.raises(ValueError):
            CongestionEvent(-1, 5.0, EventKind.PAUSE)
        with pytest.raises(ValueError):
            CongestionEvent(0, 0.0, EventKind.RETRIEVAL)


class TestMonitor:
    def test_window_eviction(self):
        m = WorkloadMonitor(window_ns=1000)
        m.observe(req(), now_ns=0)
        m.observe(req(), now_ns=500)
        m.observe(req(), now_ns=1400)
        assert m.in_window(1400) == 2  # the t=0 one fell out
        assert m.observed == 3

    def test_features_use_observation_times(self):
        m = WorkloadMonitor(window_ns=10_000)
        m.observe(req(size=1000), now_ns=100)
        m.observe(req(size=2000), now_ns=300)
        f = m.features(500)
        assert f.read_mean_interarrival_ns == 200.0
        assert f.read_mean_size_bytes == 1500.0
        assert f.read_flow_speed == 3000 / 10_000

    def test_features_flow_speed_normalised_by_window(self):
        m = WorkloadMonitor(window_ns=10_000)
        for i in range(10):
            m.observe(req(size=1000), now_ns=i * 100)
        f = m.features(1000)
        assert f.read_flow_speed == pytest.approx(10 * 1000 / 10_000)

    def test_mixed_direction_features(self):
        m = WorkloadMonitor(window_ns=10_000)
        m.observe(req(op=OpType.READ), 0)
        m.observe(req(op=OpType.READ), 10)
        m.observe(req(op=OpType.WRITE), 20)
        f = m.features(100)
        assert f.read_write_ratio == pytest.approx(2.0)

    def test_empty_window(self):
        m = WorkloadMonitor(window_ns=100)
        assert m.in_window(0) == 0
        assert m.features(0).to_array().tolist() == [0.0] * len(CH_FEATURE_NAMES)

    def test_validation(self):
        with pytest.raises(ValueError):
            WorkloadMonitor(0)


#: One monitor step: (observe?, is_read, size_bytes, clock advance before it).
_steps = st.lists(
    st.tuples(
        st.booleans(),
        st.booleans(),
        st.integers(1, 1 << 20),
        st.integers(0, 3_000),
    ),
    max_size=40,
)


def _bits(features):
    return [float(x).hex() for x in astuple(features)]


@settings(max_examples=150, deadline=None)
@given(steps=_steps, window_ns=st.integers(1, 5_000))
@example(steps=[(False, True, 1, 0)], window_ns=100)  # empty window
@example(steps=[(True, True, 512, 7), (False, True, 1, 3)], window_ns=100)  # one request
@example(
    steps=[(True, True, 4096, 0), (True, True, 512, 0), (True, True, 8192, 40),
           (False, True, 1, 10)],
    window_ns=1_000,
)  # all reads, two at one instant
@example(
    steps=[(True, False, 4096, 5), (True, False, 1024, 9), (False, True, 1, 0)],
    window_ns=1_000,
)  # all writes
def test_features_match_cloned_trace_and_consume_no_request_ids(steps, window_ns):
    """``features`` equals the cloned-trace extraction, bit for bit.

    The reference is what the monitor used to do: clone every request in
    the window with its observation time as the arrival, sort the clones
    into a :class:`Trace` and extract from that.  The monitor must get
    the same numbers straight from its deque, without creating requests
    (and so without advancing the global request-id counter).
    """
    monitor = WorkloadMonitor(window_ns=window_ns)
    seen: list[tuple[int, OpType, int]] = []
    now = 0
    for observe, is_read, size, advance in steps:
        now += advance
        op = OpType.READ if is_read else OpType.WRITE
        if observe:
            monitor.observe(req(size=size, op=op), now)
            seen.append((now, op, size))
            continue
        clones = [
            IORequest(arrival_ns=t, op=o, lba=0, size_bytes=n)
            for t, o, n in seen
            if t >= now - window_ns
        ]
        expected = extract_features(Trace(clones), window_ns=window_ns)
        before = next(_request_ids)
        got = monitor.features(now)
        assert next(_request_ids) == before + 1
        assert _bits(got) == _bits(expected)


def test_features_match_rebuilt_columns_over_long_random_sequence():
    """The incrementally kept columns equal a full rebuild.

    Thousands of seeded observations with bursts and quiet gaps grow,
    compact and drain the column buffers; after every few steps the
    features must equal those extracted from arrays rebuilt from a
    plain deque of everything still inside the window.
    """
    import random
    from collections import deque

    import numpy as np

    from repro.workloads.features import features_from_arrays

    rng = random.Random(5)
    window_ns = 60_000
    monitor = WorkloadMonitor(window_ns=window_ns)
    window: deque[tuple[int, int, bool]] = deque()
    now = 0
    for step in range(6_000):
        now += rng.choice((0, 7, 40, 300)) if rng.random() < 0.995 else 200_000
        is_read = rng.random() < 0.7
        size = rng.randrange(512, 1 << 17)
        monitor.observe(req(size=size, op=OpType.READ if is_read else OpType.WRITE), now)
        window.append((now, size, is_read))
        while window and window[0][0] < now - window_ns:
            window.popleft()
        if step % 7 == 0:
            probe = now + rng.choice((0, 0, 0, 0, 500, 90_000))
            while window and window[0][0] < probe - window_ns:
                window.popleft()
            n = len(window)
            expected = features_from_arrays(
                np.fromiter((t for t, _, _ in window), dtype=np.int64, count=n),
                np.fromiter((s for _, s, _ in window), dtype=np.int64, count=n),
                np.fromiter((r for _, _, r in window), dtype=bool, count=n),
                window_ns=window_ns,
            )
            assert _bits(monitor.features(probe)) == _bits(expected)
            assert monitor.in_window(probe) == n
    assert monitor.observed == 6_000
    assert monitor._arrivals.size > 256  # the columns grew on the way
