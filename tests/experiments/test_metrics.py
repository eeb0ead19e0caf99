"""Throughput series and §IV-B trimming."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.experiments.metrics import ThroughputSeries, trim_series
from repro.sim.units import GBPS


def test_from_events_bins_bytes():
    events = [(100, 1000), (150, 1000), (1100, 500)]
    s = ThroughputSeries.from_events(events, bin_ns=1000, end_ns=2000)
    assert s.gbps.shape == (2,)
    assert s.gbps[0] == pytest.approx(2000 / 1000 / GBPS)
    assert s.gbps[1] == pytest.approx(500 / 1000 / GBPS)


def test_from_events_ignores_out_of_range():
    events = [(-5, 100), (2500, 100)]
    s = ThroughputSeries.from_events(events, bin_ns=1000, end_ns=2000)
    assert np.all(s.gbps == 0.0)


def test_from_events_partial_last_bin_uses_true_width():
    # end_ns = 1500 with 1000 ns bins: the last bin spans only 500 ns,
    # so 500 bytes inside it is a full 1 B/ns, not half of one.
    events = [(1200, 500)]
    s = ThroughputSeries.from_events(events, bin_ns=1000, end_ns=1500)
    assert s.gbps.shape == (2,)
    assert s.gbps[1] == pytest.approx(500 / 500 / GBPS)


def test_from_events_includes_boundary_event():
    # A completion at exactly t == end_ns belongs to the measured span
    # (runs stopped at the last arrival produce these) — it lands in the
    # final bin instead of being dropped.
    events = [(2000, 800)]
    s = ThroughputSeries.from_events(events, bin_ns=1000, end_ns=2000)
    assert s.gbps[1] == pytest.approx(800 / 1000 / GBPS)


def test_partial_bin_conserves_bytes():
    events = [(100, 1000), (1499, 300), (1500, 200)]
    s = ThroughputSeries.from_events(events, bin_ns=1000, end_ns=1500)
    widths = np.array([1000, 500])
    assert (s.gbps * widths * GBPS).sum() == pytest.approx(1500)


def test_from_events_validation():
    with pytest.raises(ValueError):
        ThroughputSeries.from_events([], bin_ns=0, end_ns=100)
    with pytest.raises(ValueError):
        ThroughputSeries.from_events([], bin_ns=10, end_ns=0)


def test_series_addition():
    a = ThroughputSeries.from_events([(0, 1000)], 1000, 2000)
    b = ThroughputSeries.from_events([(0, 500)], 1000, 2000)
    c = a + b
    assert c.gbps[0] == pytest.approx(a.gbps[0] + b.gbps[0])


def test_series_addition_requires_same_bins():
    a = ThroughputSeries.from_events([], 1000, 2000)
    b = ThroughputSeries.from_events([], 1000, 3000)
    with pytest.raises(ValueError):
        _ = a + b


def test_trim_drops_head_and_tail():
    s = ThroughputSeries(np.arange(10), np.arange(10, dtype=float))
    t = trim_series(s, 0.1)
    assert t.gbps.tolist() == list(range(1, 9))


def test_trim_noop_when_too_short():
    s = ThroughputSeries(np.arange(3), np.arange(3, dtype=float))
    t = trim_series(s, 0.4)
    # 3 - 2*1 = 1 > 0: trims; 0.49 on 2 bins would not.
    s2 = ThroughputSeries(np.arange(2), np.arange(2, dtype=float))
    assert trim_series(s2, 0.49).gbps.size == 2


def test_trim_short_series_noop_returns_full_series():
    # When trimming would leave nothing, the series comes back whole
    # (values and times), not empty — short smoke runs depend on this.
    s = ThroughputSeries(np.arange(2), np.array([3.0, 4.0]))
    t = trim_series(s, 0.49)
    assert np.array_equal(t.gbps, s.gbps)
    assert np.array_equal(t.times_ns, s.times_ns)
    # Single-bin series are likewise untouched at any legal fraction.
    one = ThroughputSeries(np.array([0]), np.array([7.0]))
    assert trim_series(one, 0.4).gbps.tolist() == [7.0]


def test_trim_validation():
    s = ThroughputSeries(np.arange(4), np.zeros(4))
    with pytest.raises(ValueError):
        trim_series(s, 0.5)
    with pytest.raises(ValueError):
        trim_series(s, -0.1)


def test_mean_empty_series():
    s = ThroughputSeries(np.array([]), np.array([]))
    assert s.mean() == 0.0


@given(
    st.lists(
        st.tuples(st.integers(0, 9999), st.integers(1, 10**6)),
        min_size=0,
        max_size=100,
    )
)
def test_bins_conserve_bytes_property(events):
    s = ThroughputSeries.from_events(events, 1000, 10_000)
    total = (s.gbps * 1000 * GBPS).sum()
    assert total == pytest.approx(sum(b for _, b in events), rel=1e-9)
