"""Workload feature extraction — the ``Ch`` vector of §III-B.

The paper's throughput-prediction model takes as input the workload
characteristics observed in a prediction window:

1. the ratio of read requests to write requests,
2. the SCV of request size and inter-arrival time, separately for reads
   and writes,
3. the arrival flow speed (bytes per time unit) for reads and writes,

plus the mean size / inter-arrival per direction, which the Fig. 5
sweeps vary directly.  :func:`extract_features` turns a trace (or a
window of one) into a fixed-order numeric vector; the order is frozen in
:data:`CH_FEATURE_NAMES` so models and importances line up.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.workloads.stats import scv
from repro.workloads.traces import Trace

#: Feature order of the workload-characteristics vector ``Ch``.
CH_FEATURE_NAMES: tuple[str, ...] = (
    "read_write_ratio",
    "read_mean_interarrival_ns",
    "write_mean_interarrival_ns",
    "read_mean_size_bytes",
    "write_mean_size_bytes",
    "read_interarrival_scv",
    "write_interarrival_scv",
    "read_size_scv",
    "write_size_scv",
    "read_flow_speed",
    "write_flow_speed",
)

#: Full model-input order: Ch followed by the SSQ weight ratio ``w``.
FEATURE_NAMES: tuple[str, ...] = CH_FEATURE_NAMES + ("weight_ratio",)


@dataclass(frozen=True)
class WorkloadFeatures:
    """The extracted ``Ch`` vector with named accessors."""

    read_write_ratio: float
    read_mean_interarrival_ns: float
    write_mean_interarrival_ns: float
    read_mean_size_bytes: float
    write_mean_size_bytes: float
    read_interarrival_scv: float
    write_interarrival_scv: float
    read_size_scv: float
    write_size_scv: float
    read_flow_speed: float
    write_flow_speed: float

    def to_array(self) -> np.ndarray:
        """The Ch vector in :data:`CH_FEATURE_NAMES` order."""
        return np.array([getattr(self, name) for name in CH_FEATURE_NAMES])

    def with_weight(self, weight_ratio: float) -> np.ndarray:
        """Model input row: Ch followed by the SSQ weight ratio."""
        if weight_ratio < 1:
            raise ValueError(f"weight ratio must be >= 1, got {weight_ratio}")
        return np.append(self.to_array(), float(weight_ratio))


def _direction_stats(
    arrivals: np.ndarray, sizes: np.ndarray, window_ns: int | None
) -> tuple[float, float, float, float, float]:
    """(mean inter-arrival, mean size, inter SCV, size SCV, flow speed)."""
    n = sizes.size
    inter = np.diff(arrivals)  # empty for fewer than two requests
    mean_size = float(sizes.mean()) if n else 0.0
    mean_inter = float(inter.mean()) if inter.size else 0.0
    if window_ns is not None:
        span = window_ns
    else:
        span = int(arrivals[-1] - arrivals[0]) if n >= 2 else 0
    if span and span > 0:
        flow_speed = float(sizes.sum()) / span
    elif mean_inter > 0:
        flow_speed = mean_size / mean_inter
    else:
        flow_speed = 0.0
    return mean_inter, mean_size, scv(inter), scv(sizes), flow_speed


def extract_features(trace: Trace, *, window_ns: int | None = None) -> WorkloadFeatures:
    """Extract the ``Ch`` vector from a trace or prediction window.

    Parameters
    ----------
    trace:
        The requests observed in the window.
    window_ns:
        Length of the observation window.  When given, flow speeds are
        normalised by it (total bytes / window); otherwise the trace's
        own arrival span is used.
    """
    is_read = np.fromiter((r.is_read for r in trace), dtype=bool, count=len(trace))
    return features_from_arrays(
        trace.arrivals(), trace.sizes(), is_read, window_ns=window_ns
    )


def features_from_arrays(
    arrivals: np.ndarray,
    sizes: np.ndarray,
    is_read: np.ndarray,
    *,
    window_ns: int | None = None,
) -> WorkloadFeatures:
    """:func:`extract_features` on per-request columns in arrival order.

    ``arrivals`` and ``sizes`` are int64, ``is_read`` is bool, all of
    one length and sorted by arrival time as a :class:`Trace` would be.
    """
    if window_ns is not None and window_ns <= 0:
        raise ValueError(f"window must be positive, got {window_ns}")
    is_write = ~is_read
    n_reads = int(is_read.sum())
    n_writes = is_read.size - n_reads
    ratio = n_reads / n_writes if n_writes else float(n_reads)
    r = _direction_stats(arrivals[is_read], sizes[is_read], window_ns)
    w = _direction_stats(arrivals[is_write], sizes[is_write], window_ns)
    return WorkloadFeatures(
        read_write_ratio=ratio,
        read_mean_interarrival_ns=r[0],
        write_mean_interarrival_ns=w[0],
        read_mean_size_bytes=r[1],
        write_mean_size_bytes=w[1],
        read_interarrival_scv=r[2],
        write_interarrival_scv=w[2],
        read_size_scv=r[3],
        write_size_scv=w[3],
        read_flow_speed=r[4],
        write_flow_speed=w[4],
    )
