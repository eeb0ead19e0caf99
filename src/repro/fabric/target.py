"""NVMe-oF target: storage node bridging network and NVMe driver.

Each target holds one SSD behind one NVMe driver, as in the paper's
testbed (§IV-A).  Arriving command capsules are submitted into the
driver; completions are drained from the device CQ in order:

* **write** completions always pop — a small ack capsule returns to the
  initiator, and the completion time is the "write throughput obtained
  at Targets" measurement point (§IV-B);
* **read** completions pop only when the RDMA TXQ can take the data;
  a congested inbound path therefore backs read completions up into the
  CQ until the device's completion posting — and with it command slots —
  stalls.  This is the §II-B degradation chain.

The target also exposes its NIC's DCQCN rate-change stream and its
command arrivals, which the SRC controller (:mod:`repro.core.controller`)
subscribes to.
"""

from __future__ import annotations

from typing import Callable

from repro.fabric.capsule import Capsule, CapsuleKind, wire_bytes
from repro.net.nic import NIC
from repro.sim.engine import Simulator
from repro.ssd.device import SSD
from repro.workloads.request import IORequest


class Target:
    """One storage node with an SSD behind an NVMe-oF port."""

    __slots__ = (
        "sim",
        "nic",
        "name",
        "ssd",
        "driver",
        "ssds",
        "drivers",
        "_draining",
        "_drain_again",
        "write_completions",
        "read_device_completions",
        "commands_received",
        "arrival_listeners",
    )

    def __init__(self, sim: Simulator, nic: NIC, ssd: SSD, driver) -> None:
        self.sim = sim
        self.nic = nic
        self.name = nic.name
        self.ssd = ssd
        self.driver = driver
        # One-element views for readers that sum over a run's devices
        # (benchmarks/perf/workloads.py).
        self.ssds = (ssd,)
        self.drivers = (driver,)
        driver.connect(ssd)
        ssd.set_cq_listener(self._on_completion_posted)
        nic.endpoint = self._on_message
        nic.txq_drain_listeners.append(self._drain)
        self._draining = False
        self._drain_again = False
        #: (time_ns, nbytes) of write completions at the device — the
        #: paper's write throughput measurement point.
        self.write_completions: list[tuple[int, int]] = []
        self.read_device_completions: list[tuple[int, int]] = []
        self.commands_received = 0
        #: ``listener(req, now_ns)`` per arriving command, before it is
        #: submitted to a driver (the SRC workload monitor's tap).
        self.arrival_listeners: list[Callable[[IORequest, int], None]] = []

    # -- command arrival -------------------------------------------------------
    def _on_message(self, payload, src: str, size_bytes: int) -> None:
        if not isinstance(payload, Capsule) or payload.kind is not CapsuleKind.COMMAND:
            return
        req = payload.request
        req.initiator = req.initiator or src
        self.commands_received += 1
        for listener in self.arrival_listeners:
            listener(req, self.sim.now)
        self.driver.submit(req, now_ns=self.sim.now)

    # -- completion drain ---------------------------------------------------------
    def _on_completion_posted(self, entry) -> None:
        """Account device completions at CQ post time (§IV-B metric:
        write throughput *obtained at Targets* is device service, not the
        later response transmission), then try to drain."""
        req = entry.request
        if req.is_read:
            self.read_device_completions.append((entry.posted_ns, req.size_bytes))
        else:
            self.write_completions.append((entry.posted_ns, req.size_bytes))
        self._drain()

    def _drain(self) -> None:
        """Drain the SSD's CQ, safely against re-entrancy.

        ``send_message`` can synchronously fire the TXQ-drain listener,
        which calls back into this method while a CQ head is mid-send;
        the guard defers that nested drain to the outer loop instead of
        double-shipping the head entry.
        """
        if self._draining:
            self._drain_again = True
            return
        self._draining = True
        try:
            again = True
            while again:
                self._drain_again = False
                self._drain_cq()
                again = self._drain_again
        finally:
            self._draining = False

    def _drain_cq(self) -> None:
        nic = self.nic
        ssd = self.ssd
        cq = ssd.controller.cq
        while cq:
            head = cq[0]
            req: IORequest = head.request
            if req.is_read:
                size = wire_bytes(CapsuleKind.READ_DATA, req)
                if nic.txq_free_bytes < size <= nic.config.txq_capacity_bytes:
                    return  # TXQ full: leave the CQ head in place
                # It fits now, or never will (send_message raises).
                nic.send_message(
                    req.initiator, size, payload=Capsule(kind=CapsuleKind.READ_DATA, request=req)
                )
                ssd.pop_completion()
            else:
                ssd.pop_completion()
                nic.send_ack(
                    req.initiator, payload=Capsule(kind=CapsuleKind.WRITE_ACK, request=req)
                )

    # -- SRC integration hooks ---------------------------------------------------
    def add_rate_listener(self, listener) -> None:
        """Subscribe ``listener(flow, RateChange)`` to DCQCN rate changes."""
        self.nic.rate_listeners.append(listener)

    def set_ssq_weights(self, read_weight: int, write_weight: int) -> None:
        """Apply SSQ weights if the driver supports them."""
        setter = getattr(self.driver, "set_weights", None)
        if setter is not None:
            setter(read_weight, write_weight, now_ns=self.sim.now)
