"""Workload monitor: rolling request profile over a prediction window.

§III-C: "Workload Monitor is also implemented to profile the workload
characteristics in a user-specific time window (e.g. 10 ms)".  The
monitor observes request arrivals (hooked into the target's submission
path) and, on demand, extracts the Ch feature vector from the requests
seen in the trailing window ``[t - δ, t]``.
"""

from __future__ import annotations

import numpy as np

from repro.sim.units import MS
from repro.workloads.features import WorkloadFeatures, features_from_arrays
from repro.workloads.request import IORequest


#: Initial per-column capacity; the columns double when the window
#: outgrows half of it.
_INITIAL_CAPACITY = 256


class WorkloadMonitor:
    """Sliding-window request profiler.

    The window is kept as three columns (observation time, size,
    is-read) in NumPy buffers, appended to by :meth:`observe` and
    trimmed from the front by :meth:`_evict`, so :meth:`features` hands
    views of the live window to the extractor instead of rebuilding
    arrays from request objects on every call.
    """

    def __init__(self, window_ns: int = 10 * MS) -> None:
        if window_ns <= 0:
            raise ValueError(f"window must be positive, got {window_ns}")
        self.window_ns = window_ns
        self._arrivals = np.empty(_INITIAL_CAPACITY, dtype=np.int64)
        self._sizes = np.empty(_INITIAL_CAPACITY, dtype=np.int64)
        self._is_read = np.empty(_INITIAL_CAPACITY, dtype=bool)
        #: The window is rows ``[_head, _tail)`` of every column.
        self._head = 0
        self._tail = 0
        self.observed = 0

    def observe(self, request: IORequest, now_ns: int) -> None:
        """Record one request arrival at the target."""
        tail = self._tail
        if tail == self._arrivals.size:
            self._make_room()
            tail = self._tail
        self._arrivals[tail] = now_ns
        self._sizes[tail] = request.size_bytes
        self._is_read[tail] = request.is_read
        self._tail = tail + 1
        self.observed += 1
        self._evict(now_ns)

    def _make_room(self) -> None:
        """Move the window to the front of the columns, doubling them
        first when it fills more than half."""
        head, tail = self._head, self._tail
        n = tail - head
        capacity = self._arrivals.size
        if 2 * n > capacity:
            capacity *= 2
        for name in ("_arrivals", "_sizes", "_is_read"):
            old = getattr(self, name)
            column = np.empty(capacity, dtype=old.dtype)
            column[:n] = old[head:tail]
            setattr(self, name, column)
        self._head, self._tail = 0, n

    def _evict(self, now_ns: int) -> None:
        horizon = now_ns - self.window_ns
        arrivals = self._arrivals
        head, tail = self._head, self._tail
        while head < tail and arrivals[head] < horizon:
            head += 1
        self._head = head

    def features(self, now_ns: int) -> WorkloadFeatures:
        """Extract Ch from the requests observed in ``[now - δ, now]``.

        Arrival timestamps are the observation times, so inter-arrival
        statistics reflect what the target actually saw.  The columns
        are in observation order, which is the arrival order a trace of
        the window would sort to.
        """
        self._evict(now_ns)
        head, tail = self._head, self._tail
        return features_from_arrays(
            self._arrivals[head:tail],
            self._sizes[head:tail],
            self._is_read[head:tail],
            window_ns=self.window_ns,
        )

    def in_window(self, now_ns: int) -> int:
        """Number of requests currently inside the window."""
        self._evict(now_ns)
        return self._tail - self._head
