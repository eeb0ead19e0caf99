"""Throughput series and the paper's measurement conventions.

§IV-B: aggregated throughput = read throughput received at Initiators +
write throughput obtained at Targets; the first and last 10% of the
timeline are trimmed to skip warm-up and wrap-up.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.sim.units import GBPS


@dataclass
class ThroughputSeries:
    """Binned throughput of one direction.

    ``times_ns`` holds bin start times; ``gbps`` the average rate within
    each bin.
    """

    times_ns: np.ndarray
    gbps: np.ndarray

    def __post_init__(self) -> None:
        if self.times_ns.shape != self.gbps.shape:
            raise ValueError("times and values must align")

    @classmethod
    def from_events(
        cls, events: list[tuple[int, int]], bin_ns: int, end_ns: int
    ) -> "ThroughputSeries":
        """Bin (time_ns, nbytes) completion events into a rate series.

        The measured span is ``[0, end_ns]`` inclusive: a completion at
        exactly ``end_ns`` (common when the run stops at the last
        arrival) lands in the final bin rather than being dropped.  When
        ``end_ns`` is not a bin multiple, the final *partial* bin is
        normalised by its true width so its rate is not under-reported.
        """
        if bin_ns <= 0:
            raise ValueError(f"bin width must be positive, got {bin_ns}")
        if end_ns <= 0:
            raise ValueError(f"end time must be positive, got {end_ns}")
        n_bins = -(-end_ns // bin_ns)
        acc = np.zeros(n_bins)
        for t, nbytes in events:
            if 0 <= t <= end_ns:
                acc[min(t // bin_ns, n_bins - 1)] += nbytes
        times = np.arange(n_bins, dtype=np.int64) * bin_ns
        widths = np.full(n_bins, bin_ns, dtype=np.int64)
        widths[-1] = end_ns - (n_bins - 1) * bin_ns
        return cls(times_ns=times, gbps=acc / widths / GBPS)

    def mean(self) -> float:
        return float(self.gbps.mean()) if self.gbps.size else 0.0

    def __add__(self, other: "ThroughputSeries") -> "ThroughputSeries":
        if not np.array_equal(self.times_ns, other.times_ns):
            raise ValueError("cannot add series with different binning")
        return ThroughputSeries(self.times_ns, self.gbps + other.gbps)


def trim_series(series: ThroughputSeries, fraction: float = 0.1) -> ThroughputSeries:
    """Drop the first and last ``fraction`` of bins (warm-up / wrap-up)."""
    if not 0.0 <= fraction < 0.5:
        raise ValueError(f"trim fraction must be in [0, 0.5), got {fraction}")
    n = series.gbps.size
    cut = int(n * fraction)
    if n - 2 * cut <= 0:
        return series
    sl = slice(cut, n - cut)
    return ThroughputSeries(series.times_ns[sl], series.gbps[sl])


def trimmed_mean_gbps(
    events: list[tuple[int, int]], end_ns: int, *, bin_ns: int, fraction: float = 0.1
) -> float:
    """Trimmed-average throughput of a completion event stream."""
    return trim_series(ThroughputSeries.from_events(events, bin_ns, end_ns), fraction).mean()
