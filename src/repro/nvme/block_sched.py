"""Block-layer read throttle — the paper's §V future-work design.

The paper's conclusion proposes extending SRC "as an I/O scheduler in
the block layer on Targets".  This module implements that alternative:
a :class:`BlockLayerThrottle` sits *above* any NVMe driver and paces
read submissions to an explicit byte rate (token-bucket style), leaving
writes untouched.  Rate control here needs no throughput-prediction
model — the congestion controller's demanded rate is applied directly —
at the cost of an extra queueing stage above the driver and no direct
control over the device's internal read/write arbitration.

The benchmark suite compares this design against the SSQ/WRR mechanism
(``bench_extension_block_layer.py``).
"""

from __future__ import annotations

from collections import deque

from repro.sim.engine import Simulator
from repro.sim.units import gbps_to_bytes_per_ns
from repro.workloads.request import IORequest


class BlockLayerThrottle:
    """Read-rate-limiting shim above an NVMe driver.

    Writes pass straight through.  Reads queue in a block-layer staging
    queue and are released to the inner driver at no more than
    ``read_rate_gbps`` (``None`` = unthrottled).  The device keeps
    fetching from the *inner* driver; only submission is shaped.
    """

    __slots__ = (
        "sim",
        "inner",
        "_rate",
        "_pending",
        "_next_release_ns",
        "_release_event",
        "reads_throttled",
        "rate_log",
    )

    def __init__(self, sim: Simulator, inner, read_rate_gbps: float | None = None) -> None:
        self.sim = sim
        self.inner = inner
        self._rate: float | None = None
        self._pending: deque[IORequest] = deque()
        self._next_release_ns = 0
        self._release_event = None
        self.reads_throttled = 0
        #: (time_ns, rate or None) history of rate changes.
        self.rate_log: list[tuple[int, float | None]] = []
        if read_rate_gbps is not None:
            self.set_read_rate(read_rate_gbps)

    # -- wiring (mirrors the driver protocol used by Target) ----------------
    def connect(self, device) -> None:
        self.inner.connect(device)

    def set_weights(self, read_weight: int, write_weight: int, **kwargs) -> None:
        """Forward SSQ-style weight updates if the inner driver has them."""
        setter = getattr(self.inner, "set_weights", None)
        if setter is not None:
            setter(read_weight, write_weight, **kwargs)

    # -- rate control --------------------------------------------------------
    @property
    def read_rate_gbps(self) -> float | None:
        return self._rate

    def set_read_rate(self, gbps: float | None) -> None:
        """Cap the read submission rate (``None`` removes the cap)."""
        if gbps is not None and gbps <= 0:
            raise ValueError(f"rate must be positive, got {gbps}")
        self._rate = gbps
        self.rate_log.append((self.sim.now, gbps))
        if gbps is None:
            self._next_release_ns = self.sim.now
        self._pump()

    # -- submission ------------------------------------------------------------
    def submit(self, request: IORequest, *, now_ns: int | None = None) -> None:
        if not request.is_read or self._rate is None:
            if request.is_read and self._pending:
                # Preserve read ordering behind already-throttled reads.
                self._pending.append(request)
                self._pump()
                return
            self.inner.submit(request, now_ns=now_ns)
            return
        self._pending.append(request)
        self.reads_throttled += 1
        self._pump()

    def _pump(self) -> None:
        if self._release_event is not None:
            self._release_event.cancel()
            self._release_event = None
        while self._pending:
            if self._rate is None:
                self.inner.submit(self._pending.popleft(), now_ns=self.sim.now)
                continue
            if self.sim.now < self._next_release_ns:
                self._release_event = self.sim.schedule_at(
                    self._next_release_ns, self._pump
                )
                return
            request = self._pending.popleft()
            self.inner.submit(request, now_ns=self.sim.now)
            gap = request.size_bytes / gbps_to_bytes_per_ns(self._rate)
            self._next_release_ns = self.sim.now + max(1, int(gap + 0.5))

    # -- introspection -----------------------------------------------------------
    def staged_reads(self) -> int:
        return len(self._pending)

    def queued(self) -> int:
        return len(self._pending) + self.inner.queued()
