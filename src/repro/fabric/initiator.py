"""NVMe-oF initiator: replays a workload against remote targets.

Each request is dispatched at its arrival time: a bare command capsule
for reads, command+data for writes.  A full local TXQ parks requests in
a retry queue drained on TXQ space (outbound back-pressure).  Read
completions are recorded when the data message arrives — the
measurement point for "read throughput received at Initiators" (§IV-B).

Fault recovery (opt-in via :class:`RetryPolicy`): every command sent
carries a timeout; expiry resubmits it with exponential backoff on the
timeout, up to ``max_retries`` resubmissions, after which the request
completes *failed* (``request.error``) rather than hanging forever.
Device-side ``ERROR`` capsules (e.g. die failures surfaced by the
target) go through the same retry path — a retried command may land on
a different SSD of the target's array and succeed.  Late responses to a
command that was already retried and completed are counted and dropped
(``duplicate_completions``), so each request finishes exactly once.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.fabric.capsule import Capsule, CapsuleKind
from repro.net.nic import NIC
from repro.sim.engine import Simulator
from repro.sim.events import Event
from repro.workloads.request import IORequest
from repro.workloads.traces import Trace

if TYPE_CHECKING:
    from repro.sim.units import Nanoseconds


@dataclass(frozen=True)
class RetryPolicy:
    """NVMe-oF command timeout + bounded retry parameters.

    ``timeout_ns`` is the first attempt's deadline; attempt ``n`` waits
    ``timeout_ns * backoff**n``.  ``max_retries`` counts resubmissions
    (so a command is sent at most ``max_retries + 1`` times).
    """

    timeout_ns: Nanoseconds = 2_000_000
    max_retries: int = 3
    backoff: float = 2.0

    def __post_init__(self) -> None:
        if self.timeout_ns <= 0:
            raise ValueError("command timeout must be positive")
        if self.max_retries < 0:
            raise ValueError("max_retries must be non-negative")
        if self.backoff < 1.0:
            raise ValueError("backoff multiplier must be >= 1")


class Initiator:
    """One compute node issuing remote I/O."""

    def __init__(
        self, sim: Simulator, nic: NIC, retry_policy: RetryPolicy | None = None
    ) -> None:
        self.sim = sim
        self.nic = nic
        self.name = nic.name
        self.retry_policy = retry_policy
        nic.endpoint = self._on_message
        nic.txq_drain_listeners.append(self._retry_pending)
        self._pending: deque[IORequest] = deque()
        #: req_id -> request, for every issued request not yet completed
        #: or failed (the initiator's responsibility set).
        self._inflight: dict[int, IORequest] = {}
        #: req_id -> armed timeout event (retry mode only).
        self._timers: dict[int, Event] = {}
        #: (time_ns, nbytes) of read data received — the paper's read
        #: throughput measurement point.
        self.read_deliveries: list[tuple[int, int]] = []
        #: (time_ns, nbytes) of write acks received.
        self.write_acks: list[tuple[int, int]] = []
        #: (time_ns, request) of requests that exhausted their retries.
        self.failures: list[tuple[int, IORequest]] = []
        self.requests_sent = 0
        self.reads_completed = 0
        self.writes_completed = 0
        self.failed_requests = 0
        #: Command resubmissions (timeout- or error-triggered).
        self.retries_sent = 0
        self.timeouts_fired = 0
        #: Responses to commands already completed via a retry.
        self.duplicate_completions = 0

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
            if self.retry_policy is not None:
                self._arm_timer(request)
        return ok

    def _retry_pending(self) -> None:
        pending = self._pending
        while pending:
            head = pending[0]
            if head.req_id not in self._inflight:
                # Completed while parked (a late response beat the
                # resubmission to it) — nothing left to send.
                pending.popleft()
                continue
            if not self._try_send(head):
                return
            pending.popleft()

    # -- command timeout / retry -------------------------------------------
    def _arm_timer(self, request: IORequest) -> None:
        policy = self.retry_policy
        assert policy is not None
        old = self._timers.pop(request.req_id, None)
        if old is not None:
            old.cancel()
        deadline = int(policy.timeout_ns * policy.backoff**request.retries)
        self._timers[request.req_id] = self.sim.schedule(
            deadline, self._on_timeout, request
        )

    def _cancel_timer(self, req_id: int) -> None:
        timer = self._timers.pop(req_id, None)
        if timer is not None:
            timer.cancel()

    def _on_timeout(self, request: IORequest) -> None:
        self._timers.pop(request.req_id, None)
        if request.req_id not in self._inflight:
            return  # completed while the cancel was in flight
        self.timeouts_fired += 1
        self._retry_or_fail(request, "timeout")

    def _retry_or_fail(self, request: IORequest, cause: str) -> None:
        policy = self.retry_policy
        if policy is None or request.retries >= policy.max_retries:
            request.error = request.error or cause
            request.complete_ns = self.sim.now
            self._inflight.pop(request.req_id, None)
            self._cancel_timer(request.req_id)
            self.failed_requests += 1
            self.failures.append((self.sim.now, request))
            return
        request.retries += 1
        request.error = ""  # the new attempt starts clean
        self.retries_sent += 1
        if not self._try_send(request):
            self._pending.append(request)

    # -- completions ----------------------------------------------------------
    def _on_message(self, payload, src: str, size_bytes: int) -> None:
        if not isinstance(payload, Capsule):
            return
        req = payload.request
        live = self._inflight.pop(req.req_id, None)
        if live is None:
            # A retried command completed twice (e.g. the original
            # response was merely late, not lost).
            self.duplicate_completions += 1
            return
        if payload.kind is CapsuleKind.ERROR:
            # Put it back while the retry decision is made: a retry
            # keeps the request in flight, exhaustion removes it.
            self._inflight[req.req_id] = req
            self._cancel_timer(req.req_id)
            self._retry_or_fail(req, req.error or "media")
            return
        self._cancel_timer(req.req_id)
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
        """Requests issued but neither completed nor failed."""
        return len(self._inflight)

    def wedged_requests(self) -> list[IORequest]:
        """Snapshot of in-flight requests (for watchdog diagnostics)."""
        return list(self._inflight.values())
