"""Host RDMA NICs: TXQ, per-flow DCQCN pacing, NP logic, reassembly.

A :class:`NIC` owns one uplink and a set of :class:`Flow` objects (one
per destination — the QP abstraction).  Messages handed to
:meth:`NIC.send_message` queue in the flow's share of the TXQ; the flow
carves them into MTU segments paced at its DCQCN rate.  A full TXQ
rejects the message — that back-pressure signal is what stalls read
completions on targets under congestion (§II-B's bottleneck).

Receive side implements the DCQCN notification point: an ECN-marked
data packet triggers a CNP back to the sender, rate-limited to one per
``cnp_interval_ns`` per flow.  Multi-packet messages are reassembled and
delivered to the attached endpoint with their payload.

Hot-path notes: the NIC keeps an index of *backlogged* flows (those
with queued bytes) so a link departure re-pumps only flows that can
actually send, instead of scanning every flow ever created.  Flows are
pumped in flow-id (creation) order — the same order the full scan used —
which keeps event sequencing, and therefore whole simulations,
bit-identical.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Callable

from repro.net.dcqcn import DCQCNConfig, DCQCNRateControl, RateChange
from repro.net.link import Link
from repro.net.packet import CONTROL_PACKET_BYTES, Packet, PacketKind
from repro.sim.engine import Simulator
from repro.sim.serial import SerialCounter

if TYPE_CHECKING:
    from repro.sim.units import Bytes, Nanoseconds


@dataclass(frozen=True, slots=True)
class NICConfig:
    """Host NIC parameters."""

    mtu_bytes: Bytes = 4096
    txq_capacity_bytes: Bytes = 2 * 1024 * 1024
    cnp_interval_ns: Nanoseconds = 50_000
    max_link_backlog_packets: int = 4
    dcqcn: DCQCNConfig = field(default_factory=DCQCNConfig)
    #: Burst batching (dual-fidelity mode): when >= 2 and the uplink is
    #: idle, ``Flow.pump`` admits up to this many back-to-back MTU
    #: segments as *one* ``Link.send_burst`` serialization event instead
    #: of one event pair per packet.  The default of 1 keeps the exact
    #: per-packet pump — and the v2 golden dispatch trace — untouched.
    burst_segments: int = 1

    def __post_init__(self) -> None:
        if self.mtu_bytes <= 0:
            raise ValueError("mtu must be positive")
        if self.txq_capacity_bytes <= 0:
            raise ValueError("TXQ capacity must be positive")
        if self.cnp_interval_ns <= 0:
            raise ValueError("CNP interval must be positive")
        if self.max_link_backlog_packets < 1:
            raise ValueError("link backlog must be >= 1")
        if self.burst_segments < 1:
            raise ValueError("burst_segments must be >= 1")


_DATA = PacketKind.DATA

_flow_ids = SerialCounter("net.flow")
_message_ids = SerialCounter("net.message")


class _FlowRateFan:
    """Per-flow rate-change forwarder to the NIC's shared listeners.

    A slotted callable instead of a closure so the listener survives
    checkpoint pickling (:mod:`repro.sim.checkpoint`); it holds only
    the two object references the closure captured.
    """

    __slots__ = ("nic", "flow")

    def __init__(self, nic: "NIC", flow: "Flow") -> None:
        self.nic = nic
        self.flow = flow

    def __call__(self, change: RateChange) -> None:
        for listener in self.nic.rate_listeners:
            listener(self.flow, change)


@dataclass(slots=True)
class _Message:
    id: int
    dst: str
    size_bytes: Bytes
    sent_bytes: Bytes
    payload: Any


class Flow:
    """One sender-side flow (QP): message queue + DCQCN pacing."""

    __slots__ = (
        "id",
        "nic",
        "dst",
        "rate_control",
        "_messages",
        "queued_bytes",
        "_next_send_ns",
        "_pump_due_ns",
        "_pump_cb",
        "bytes_sent",
        "_plain",
    )

    def __init__(self, nic: "NIC", dst: str) -> None:
        self.id = next(_flow_ids)
        self.nic = nic
        self.dst = dst
        self.rate_control = DCQCNRateControl(nic.sim, nic.config.dcqcn)
        self._messages: deque[_Message] = deque()
        self.queued_bytes = 0
        self._next_send_ns = 0
        #: Time of the pending pacing wake-up; in the past = none pending.
        #: The wake-up is an *anonymous* event (nothing ever cancels it —
        #: the old cancel-and-reschedule per uplink departure was pure
        #: heap churn), so this timestamp is the only handle needed.
        self._pump_due_ns = 0
        self._pump_cb = self.pump  # cached bound method for rescheduling
        self.bytes_sent = 0
        #: One segment per send: ``pump`` takes its lean path, else
        #: ``_pump_full``.
        self._plain = nic.config.burst_segments == 1

    def enqueue(self, size_bytes: Bytes, payload: Any) -> None:
        self._messages.append(
            _Message(
                id=next(_message_ids),
                dst=self.dst,
                size_bytes=size_bytes,
                sent_bytes=0,
                payload=payload,
            )
        )
        self.queued_bytes += size_bytes
        self.nic.mark_backlogged(self)
        self.pump()

    # -- pacing ---------------------------------------------------------
    def pump(self) -> None:
        """Send segments while allowed; reschedules itself as needed.

        The paper path's flows (``burst_segments=1``) take the lean loop
        below, which reads only what sending one segment needs; the
        common pacing wake-up sends one segment and reschedules.  Burst
        flows go through :meth:`_pump_full`.
        """
        nic = self.nic
        now = nic.sim.now  # constant for the whole call: pumping never dispatches
        if self._pump_due_ns > now:
            # A pacing wake-up is already scheduled for exactly when
            # sending next becomes allowed; until then every other
            # condition is moot.  Keeping it pending (instead of the old
            # cancel-and-reschedule on every uplink departure) removes
            # ~2 heap pushes + 1 lazy cancel per data packet.
            return
        if not self._plain:
            self._pump_full(now)
            return
        messages = self._messages
        link = nic.link
        while messages:
            due = self._next_send_ns
            if now < due:
                self._pump_due_ns = due
                nic.sim.schedule_at_anon(due, self._pump_cb)
                return
            config = nic.config
            if len(link._queue) >= config.max_link_backlog_packets:
                return  # re-pumped when the link drains
            msg = messages[0]
            size = msg.size_bytes
            seg = size - msg.sent_bytes
            if seg > config.mtu_bytes:
                seg = config.mtu_bytes
            sent = msg.sent_bytes + seg
            msg.sent_bytes = sent
            last = sent >= size
            link.send(
                Packet(
                    _DATA,
                    nic.name,
                    self.dst,
                    seg,
                    self.id,
                    False,
                    msg.id,
                    size,
                    last,
                    msg.payload if last else None,
                )
            )
            self.bytes_sent += seg
            self.queued_bytes -= seg
            nic._txq_used -= seg
            rate_control = self.rate_control
            rate_control.on_bytes_sent(seg)
            gap_ns = int(seg / rate_control.current_bytes_per_ns + 0.5)
            self._next_send_ns = now + (gap_ns if gap_ns > 1 else 1)
            if last:
                messages.popleft()
            if nic.txq_drain_listeners:
                nic._notify_txq_drain()
        nic._backlogged.pop(self.id, None)

    def _pump_full(self, now: Nanoseconds) -> None:
        """:meth:`pump` for burst flows (``burst_segments >= 2``).

        While the uplink is idle, up to ``burst_segments`` MTU segments
        go out back-to-back as one serialization event; otherwise one
        segment at a time, as in :meth:`pump`.
        """
        nic = self.nic
        sim = nic.sim
        messages = self._messages
        link = nic.link
        config = nic.config
        mtu = config.mtu_bytes
        max_backlog = config.max_link_backlog_packets
        burst_k = config.burst_segments
        rate_control = self.rate_control
        while messages:
            if now < self._next_send_ns:
                due = self._next_send_ns
                self._pump_due_ns = due
                sim.schedule_at_anon(due, self._pump_cb)
                return
            if len(link._queue) >= max_backlog:
                return  # re-pumped when the link drains
            if not link._busy and not link._queue and not link.paused:
                # Burst batching (dual-fidelity mode): the uplink is idle
                # and pacing allows sending *now*, so up to burst_k MTU
                # segments go out back-to-back as one serialization
                # event.
                burst: list[Packet] = []
                total = 0
                while len(burst) < burst_k and messages:
                    msg = messages[0]
                    seg = min(mtu, msg.size_bytes - msg.sent_bytes)
                    msg.sent_bytes += seg
                    last = msg.sent_bytes >= msg.size_bytes
                    burst.append(
                        Packet(
                            kind=PacketKind.DATA,
                            src=nic.name,
                            dst=self.dst,
                            size_bytes=seg,
                            flow_id=self.id,
                            message_id=msg.id,
                            message_bytes=msg.size_bytes,
                            last_of_message=last,
                            payload=msg.payload if last else None,
                        )
                    )
                    total += seg
                    if last:
                        messages.popleft()
                if len(burst) >= 2:
                    link.send_burst(burst)
                else:
                    link.send(burst[0])
                self.bytes_sent += total
                self.queued_bytes -= total
                nic._txq_used -= total
                # One rate-control charge for the whole burst: bursts are
                # <= burst_k * MTU, far below the 10 MiB DCQCN byte
                # counter, so stage crossings land at the same points.
                rate_control.on_bytes_sent(total)
                gap = total / rate_control.current_bytes_per_ns
                self._next_send_ns = now + max(1, int(gap + 0.5))
                if nic.txq_drain_listeners:
                    nic._notify_txq_drain()
                continue
            msg = messages[0]
            seg = min(mtu, msg.size_bytes - msg.sent_bytes)
            msg.sent_bytes += seg
            last = msg.sent_bytes >= msg.size_bytes
            link.send(
                Packet(
                    kind=PacketKind.DATA,
                    src=nic.name,
                    dst=self.dst,
                    size_bytes=seg,
                    flow_id=self.id,
                    message_id=msg.id,
                    message_bytes=msg.size_bytes,
                    last_of_message=last,
                    payload=msg.payload if last else None,
                )
            )
            self.bytes_sent += seg
            self.queued_bytes -= seg
            nic._txq_used -= seg
            rate_control.on_bytes_sent(seg)
            gap = seg / rate_control.current_bytes_per_ns
            self._next_send_ns = now + max(1, int(gap + 0.5))
            if last:
                messages.popleft()
            if nic.txq_drain_listeners:
                nic._notify_txq_drain()
        nic._backlogged.pop(self.id, None)


class NIC:
    """Host network interface."""

    __slots__ = (
        "sim",
        "name",
        "config",
        "link",
        "flows",
        "_flows_by_id",
        "_backlogged",
        "_txq_used",
        "_reassembly",
        "_last_cnp_ns",
        "endpoint",
        "rate_listeners",
        "txq_drain_listeners",
        "cnp_log",
        "pfc_pause_log",
        "bytes_received",
        "messages_delivered",
        "reassembly_bytes_delivered",
    )

    def __init__(self, sim: Simulator, name: str, config: NICConfig | None = None) -> None:
        self.sim = sim
        self.name = name
        self.config = config or NICConfig()
        self.link: Link | None = None  # uplink, set by the topology builder
        self.flows: dict[str, Flow] = {}
        self._flows_by_id: dict[int, Flow] = {}
        #: flow id -> flow, for every flow with queued bytes (pump index).
        self._backlogged: dict[int, Flow] = {}
        self._txq_used = 0
        self._reassembly: dict[int, int] = {}
        self._last_cnp_ns: dict[int, int] = {}
        #: Endpoint callback: (payload, src_name, size_bytes) on message delivery.
        self.endpoint: Callable[[Any, str, int], None] | None = None
        #: Subscribers to DCQCN rate changes of any of this NIC's flows.
        self.rate_listeners: list[Callable[[Flow, RateChange], None]] = []
        #: Subscribers to TXQ space becoming available.
        self.txq_drain_listeners: list[Callable[[], None]] = []
        #: Timestamps of received CNPs (the paper's "pause number" signal).
        self.cnp_log: list[int] = []
        self.pfc_pause_log: list[int] = []
        self.bytes_received = 0
        self.messages_delivered = 0
        #: DATA bytes accounted to delivered messages (reassembly byte-
        #: conservation: received == delivered + pending).
        self.reassembly_bytes_delivered = 0
        if sim.sanitizer is not None:
            sim.sanitizer.track_nic(self)

    # -- wiring -------------------------------------------------------------
    def attach_uplink(self, link: Link) -> None:
        # _pump_backlogged doubles as the depart hook (the packet is
        # irrelevant to re-pumping); binding it directly saves one call
        # frame per uplink departure.
        self.link = link
        link.on_depart = self._pump_backlogged

    def _pump_backlogged(self, _packet: Packet | None = None) -> None:
        """Pump every flow with queued bytes, in flow-creation order.

        Sorted-by-id iteration over a snapshot: pumping can drain flows
        (removing them) and synchronous TXQ-drain listeners can enqueue
        into new ones (adding them) while we walk.
        """
        backlogged = self._backlogged
        if not backlogged:
            return
        now = self.sim.now
        if len(backlogged) == 1:
            (flow,) = backlogged.values()
            # Same keep-alive guard as Flow.pump's entry, hoisted to
            # skip the call: a flow whose pacing wake-up is still in the
            # future cannot send yet.
            if flow._pump_due_ns <= now:
                flow.pump()
            return
        for flow_id in sorted(backlogged):
            flow = backlogged.get(flow_id)
            if flow is not None and flow._pump_due_ns <= now:
                flow.pump()

    def flow_to(self, dst: str) -> Flow:
        flow = self.flows.get(dst)
        if flow is None:
            flow = Flow(self, dst)
            self.flows[dst] = flow
            self._flows_by_id[flow.id] = flow

            flow.rate_control.listeners.append(_FlowRateFan(self, flow))
        return flow

    # -- transmit --------------------------------------------------------------
    @property
    def txq_free_bytes(self) -> Bytes:
        return self.config.txq_capacity_bytes - self._txq_used

    def send_message(
        self, dst: str, size_bytes: Bytes, payload: Any = None
    ) -> bool:
        """Queue a message; returns False when the TXQ lacks space.

        A message larger than the whole TXQ could never be queued, and
        its sender would wait for it forever: that raises ``ValueError``.
        """
        if size_bytes <= 0:
            raise ValueError(f"message size must be positive, got {size_bytes}")
        if self.link is None:
            raise RuntimeError(f"NIC {self.name} has no uplink")
        if size_bytes > self.txq_free_bytes:
            capacity = self.config.txq_capacity_bytes
            if size_bytes > capacity:
                raise ValueError(
                    f"NIC {self.name}: a {size_bytes} B message exceeds the "
                    f"{capacity} B TXQ capacity and can never be sent"
                )
            return False
        self._txq_used += size_bytes
        self.flow_to(dst).enqueue(size_bytes, payload)
        return True

    def _notify_txq_drain(self) -> None:
        for listener in self.txq_drain_listeners:
            listener()

    def mark_backlogged(self, flow: Flow) -> None:
        """Register ``flow`` for pump service (insertion-ordered, idempotent)."""
        self._backlogged[flow.id] = flow

    def send_ack(self, dst: str, payload: Any = None) -> None:
        """Send a small control acknowledgment (bypasses the TXQ)."""
        if self.link is None:
            raise RuntimeError(f"NIC {self.name} has no uplink")
        self.link.send(
            Packet(
                kind=PacketKind.ACK,
                src=self.name,
                dst=dst,
                size_bytes=CONTROL_PACKET_BYTES,
                payload=payload,
            )
        )

    # -- receive ---------------------------------------------------------------
    @property
    def reassembly_pending(self) -> int:
        """Messages currently awaiting more segments."""
        return len(self._reassembly)

    def receive(self, packet: Packet, in_port: int) -> None:
        if not packet.is_control:
            self.bytes_received += packet.size_bytes
            if packet.ecn_marked:
                self._maybe_send_cnp(packet)
            reassembly = self._reassembly
            got = reassembly.pop(packet.message_id, 0) + packet.size_bytes
            if packet.last_of_message or got >= packet.message_bytes:
                # The message is over — either byte-complete or its final
                # segment arrived.  Delivering (rather than accumulating)
                # on ``last_of_message`` also clears stale partial state
                # when a message id is re-sent, so ``_reassembly`` cannot
                # leak entries that no future packet would complete.
                self.messages_delivered += 1
                self.reassembly_bytes_delivered += got
                if self.endpoint is not None:
                    self.endpoint(packet.payload, packet.src, packet.message_bytes)
            else:
                reassembly[packet.message_id] = got
            return
        kind = packet.kind
        if kind in (PacketKind.PAUSE, PacketKind.RESUME):
            if self.link is not None:
                if kind is PacketKind.PAUSE:
                    self.pfc_pause_log.append(self.sim.now)
                    self.link.pause()
                else:
                    self.link.resume()
            return
        if kind is PacketKind.CNP:
            self.cnp_log.append(self.sim.now)
            flow = self._flows_by_id.get(packet.flow_id)
            if flow is not None:
                flow.rate_control.on_cnp()
            return
        if kind is PacketKind.ACK:
            if self.endpoint is not None:
                self.endpoint(packet.payload, packet.src, packet.size_bytes)
            return

    def _maybe_send_cnp(self, packet: Packet) -> None:
        last = self._last_cnp_ns.get(packet.flow_id, -(10**12))
        if self.sim.now - last < self.config.cnp_interval_ns:
            return
        self._last_cnp_ns[packet.flow_id] = self.sim.now
        cnp = Packet(
            kind=PacketKind.CNP,
            src=self.name,
            dst=packet.src,
            size_bytes=CONTROL_PACKET_BYTES,
            flow_id=packet.flow_id,
        )
        if self.link is not None:
            self.link.send(cnp)
