"""NVMe-oF initiator: replays a workload against remote targets.

Each request is dispatched at its arrival time: a bare command capsule
for reads, command+data for writes.  A full local TXQ parks requests in
a pending queue drained on TXQ space (outbound back-pressure).  Read
completions are recorded when the data message arrives — the
measurement point for "read throughput received at Initiators" (§IV-B).

The fabric is lossless (DESIGN §7), so every command sent completes
exactly once; there is no command timeout or retry.
"""

from __future__ import annotations

from collections import deque

from repro.fabric.capsule import Capsule, CapsuleKind
from repro.net.nic import NIC
from repro.sim.engine import Simulator
from repro.workloads.request import IORequest
from repro.workloads.traces import Trace


class Initiator:
    """One compute node issuing remote I/O."""

    __slots__ = (
        "sim",
        "nic",
        "name",
        "_pending",
        "_inflight",
        "read_deliveries",
        "write_acks",
        "requests_sent",
        "reads_completed",
        "writes_completed",
        "failed_requests",
        "retries_sent",
    )

    def __init__(self, sim: Simulator, nic: NIC) -> None:
        self.sim = sim
        self.nic = nic
        self.name = nic.name
        nic.endpoint = self._on_message
        nic.txq_drain_listeners.append(self._send_pending)
        self._pending: deque[IORequest] = deque()
        #: req_id -> request, for every issued request not yet completed
        #: (the initiator's responsibility set).
        self._inflight: dict[int, IORequest] = {}
        #: (time_ns, nbytes) of read data received — the paper's read
        #: throughput measurement point.
        self.read_deliveries: list[tuple[int, int]] = []
        #: (time_ns, nbytes) of write acks received.
        self.write_acks: list[tuple[int, int]] = []
        self.requests_sent = 0
        self.reads_completed = 0
        self.writes_completed = 0
        # Always 0; kept because benchmarks/perf/workloads.py reads them.
        self.failed_requests = 0
        self.retries_sent = 0

    # -- workload ------------------------------------------------------------
    def load_trace(self, trace: Trace, target_of) -> None:
        """Schedule every request; ``target_of(request) -> target name``.

        The trace goes onto the event heap as one series
        (:meth:`Simulator.schedule_series_at`), so it occupies one heap
        slot however many requests it holds.
        """
        issue = self.issue
        for req in trace:
            req.initiator = self.name
            req.target = target_of(req)
        self.sim.schedule_series_at([(req.arrival_ns, issue, (req,)) for req in trace])

    def issue(self, request: IORequest) -> None:
        """Send one request now (queues locally if the TXQ is full)."""
        if not request.target:
            raise ValueError("request has no target assigned")
        request.initiator = self.name
        self._inflight[request.req_id] = request
        if not self._try_send(request):
            self._pending.append(request)

    def _try_send(self, request: IORequest) -> bool:
        capsule = Capsule(kind=CapsuleKind.COMMAND, request=request)
        ok = self.nic.send_message(request.target, capsule.wire_bytes, payload=capsule)
        if ok:
            request.submit_ns = self.sim.now
            self.requests_sent += 1
        return ok

    def _send_pending(self) -> None:
        # Pop before sending: a send can drain a segment and re-enter
        # here through the TXQ-drain listener, which must not see (and
        # send again) the request being sent.
        pending = self._pending
        while pending:
            request = pending.popleft()
            if not self._try_send(request):
                pending.appendleft(request)
                return

    # -- completions ----------------------------------------------------------
    def _on_message(self, payload, src: str, size_bytes: int) -> None:
        if not isinstance(payload, Capsule):
            return
        req = payload.request
        del self._inflight[req.req_id]
        if payload.kind is CapsuleKind.READ_DATA:
            req.complete_ns = self.sim.now
            self.read_deliveries.append((self.sim.now, req.size_bytes))
            self.reads_completed += 1
        elif payload.kind is CapsuleKind.WRITE_ACK:
            req.complete_ns = self.sim.now
            self.write_acks.append((self.sim.now, req.size_bytes))
            self.writes_completed += 1

    # -- metrics -------------------------------------------------------------
    def outstanding(self) -> int:
        """Requests issued but not yet completed."""
        return len(self._inflight)

    def wedged_requests(self) -> list[IORequest]:
        """Snapshot of in-flight requests (for stuck-I/O diagnostics)."""
        return list(self._inflight.values())
