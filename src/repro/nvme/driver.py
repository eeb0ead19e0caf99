"""Default NVMe driver: per-CPU FIFO submission queues (Fig. 4-a).

No I/O-type awareness: commands are enqueued in arrival order onto one
of ``n_queues`` SQs (round-robin, standing in for per-CPU affinity) and
fetched FIFO across queues.  This is the baseline whose head-of-line
blocking under congestion SRC removes.
"""

from __future__ import annotations

from collections import deque
from typing import Callable

from repro.workloads.request import IORequest


class DefaultNvmeDriver:
    """FIFO multi-SQ driver implementing ``SubmissionSource``."""

    __slots__ = (
        "n_queues",
        "_queues",
        "_submit_rr",
        "_fetch_rr",
        "_doorbell",
        "submitted",
        "fetched",
    )

    def __init__(self, n_queues: int = 1) -> None:
        if n_queues < 1:
            raise ValueError(f"n_queues must be >= 1, got {n_queues}")
        self.n_queues = n_queues
        self._queues: list[deque[IORequest]] = [deque() for _ in range(n_queues)]
        self._submit_rr = 0
        self._fetch_rr = 0
        self._doorbell: Callable[[], None] | None = None
        self.submitted = 0
        self.fetched = 0

    def connect(self, device) -> None:
        """Bind to a device; submissions will ring its doorbell."""
        self._doorbell = device.doorbell
        device.attach_driver(self)

    # -- host side -------------------------------------------------------
    def submit(self, request: IORequest, now_ns: int | None = None) -> None:
        """Enqueue a command and ring the doorbell."""
        if now_ns is not None:
            request.submit_ns = now_ns
        self._queues[self._submit_rr].append(request)
        self._submit_rr = (self._submit_rr + 1) % self.n_queues
        self.submitted += 1
        if self._doorbell is not None:
            self._doorbell()

    # -- device side (SubmissionSource) --------------------------------------
    def has_pending(self) -> bool:
        return any(self._queues)

    def fetch(
        self, inflight_reads: int, inflight_writes: int, queue_depth: int
    ) -> IORequest | None:
        """Pop the next command FIFO across SQs; no type gating."""
        for _ in range(self.n_queues):
            q = self._queues[self._fetch_rr]
            self._fetch_rr = (self._fetch_rr + 1) % self.n_queues
            if q:
                self.fetched += 1
                return q.popleft()
        return None

    # -- introspection ----------------------------------------------------
    def queued(self) -> int:
        return sum(len(q) for q in self._queues)
