"""Workload monitor: rolling request profile over a prediction window.

§III-C: "Workload Monitor is also implemented to profile the workload
characteristics in a user-specific time window (e.g. 10 ms)".  The
monitor observes request arrivals (hooked into the target's submission
path) and, on demand, extracts the Ch feature vector from the requests
seen in the trailing window ``[t - δ, t]``.
"""

from __future__ import annotations

from collections import deque

import numpy as np

from repro.sim.units import MS
from repro.workloads.features import WorkloadFeatures, features_from_arrays
from repro.workloads.request import IORequest


class WorkloadMonitor:
    """Sliding-window request profiler."""

    def __init__(self, window_ns: int = 10 * MS) -> None:
        if window_ns <= 0:
            raise ValueError(f"window must be positive, got {window_ns}")
        self.window_ns = window_ns
        self._requests: deque[tuple[int, IORequest]] = deque()
        self.observed = 0

    def observe(self, request: IORequest, now_ns: int) -> None:
        """Record one request arrival at the target."""
        self._requests.append((now_ns, request))
        self.observed += 1
        self._evict(now_ns)

    def _evict(self, now_ns: int) -> None:
        horizon = now_ns - self.window_ns
        while self._requests and self._requests[0][0] < horizon:
            self._requests.popleft()

    def features(self, now_ns: int) -> WorkloadFeatures:
        """Extract Ch from the requests observed in ``[now - δ, now]``.

        Arrival timestamps are the observation times, so inter-arrival
        statistics reflect what the target actually saw.  The deque is
        in observation order, which is the arrival order a trace of the
        window would sort to.
        """
        self._evict(now_ns)
        window = self._requests
        n = len(window)
        arrivals = np.fromiter((t for t, _ in window), dtype=np.int64, count=n)
        sizes = np.fromiter((r.size_bytes for _, r in window), dtype=np.int64, count=n)
        is_read = np.fromiter((r.is_read for _, r in window), dtype=bool, count=n)
        return features_from_arrays(arrivals, sizes, is_read, window_ns=self.window_ns)

    def in_window(self, now_ns: int) -> int:
        """Number of requests currently inside the window."""
        self._evict(now_ns)
        return len(self._requests)
