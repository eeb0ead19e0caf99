"""Default NVMe driver: one FIFO submission queue (Fig. 4-a).

No I/O-type awareness: commands are fetched in arrival order.  This is
the baseline whose head-of-line blocking under congestion SRC removes.
"""

from __future__ import annotations

from collections import deque
from typing import Callable

from repro.workloads.request import IORequest


class DefaultNvmeDriver:
    """FIFO driver implementing ``SubmissionSource``."""

    __slots__ = (
        "_queue",
        "_doorbell",
        "submitted",
        "fetched",
    )

    def __init__(self) -> None:
        self._queue: deque[IORequest] = deque()
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
        self._queue.append(request)
        self.submitted += 1
        if self._doorbell is not None:
            self._doorbell()

    # -- device side (SubmissionSource) --------------------------------------
    def has_pending(self) -> bool:
        return bool(self._queue)

    def fetch(
        self, inflight_reads: int, inflight_writes: int, queue_depth: int
    ) -> IORequest | None:
        """Pop the oldest command; no type gating."""
        if self._queue:
            self.fetched += 1
            return self._queue.popleft()
        return None

    # -- introspection ----------------------------------------------------
    def queued(self) -> int:
        return len(self._queue)
