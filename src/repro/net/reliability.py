"""Go-back-N reliability for RDMA flows (opt-in recovery machinery).

The base NIC model assumes a lossless fabric: a dropped segment silently
wedges message reassembly at the receiver.  When a
:class:`ReliabilityConfig` is attached to the :class:`~repro.net.nic.NICConfig`
every flow carries go-back-N state:

* data segments get per-flow sequence numbers and are buffered until a
  cumulative ``RDMA_ACK`` covers them (at most ``window_packets``
  in flight);
* the receiver accepts only the in-order segment, re-acking the
  expected sequence for anything else (duplicates, reorder, corruption);
* a per-flow retransmission timeout (seeded-jitter exponential backoff
  between ``rto_ns`` and ``rto_max_ns``) rewinds the sender to the
  first unacked segment — segments are *re-queued through the normal
  pacing pump*, so a retransmission burst still respects DCQCN rates
  and the link backlog cap;
* after ``max_retransmits`` consecutive timeouts without progress the
  head message is aborted: its segments are dropped from the window, an
  ``RDMA_RESET`` resynchronises the receiver's expected sequence, and
  the loss is surfaced to the layer above (the NVMe-oF command timeout
  picks it up from there).

Everything is deterministic: the only randomness is the RTO jitter,
drawn from a per-NIC generator created from
``ReliabilityConfig.seed`` via :func:`repro.sim.rng.make_rng`, and the
draw order is fixed by the (deterministic) event order.

When ``NICConfig.reliability`` is ``None`` (the default) none of this
state exists and the NIC behaves exactly as before — the golden
dispatch trace is unchanged.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any

if TYPE_CHECKING:
    import numpy as np

    from repro.net.nic import Flow, _Message
    from repro.sim.units import Bytes, Nanoseconds, Ratio


@dataclass(frozen=True)
class ReliabilityConfig:
    """Go-back-N parameters shared by every flow of a NIC.

    Attributes
    ----------
    window_packets:
        Maximum unacked segments per flow (the go-back-N window).
    rto_ns / rto_max_ns:
        Base retransmission timeout and its exponential-backoff ceiling.
    backoff:
        Multiplier applied to the RTO on every consecutive timeout;
        reset to ``rto_ns`` whenever an ack makes progress.
    jitter_frac:
        Each armed timer waits ``rto * (1 + jitter_frac * u)`` with
        ``u ~ U[0, 1)`` from the NIC's seeded generator — desynchronises
        flows that lost segments in the same burst.
    max_retransmits:
        Consecutive no-progress timeouts before the head message is
        aborted (surfaced upward instead of retrying forever).
    seed:
        Seed of the per-NIC jitter generator.
    """

    window_packets: int = 64
    rto_ns: Nanoseconds = 200_000
    rto_max_ns: Nanoseconds = 5_000_000
    backoff: float = 2.0
    jitter_frac: Ratio = 0.1
    max_retransmits: int = 32
    seed: int = 0

    def __post_init__(self) -> None:
        if self.window_packets < 1:
            raise ValueError("window must be >= 1 packet")
        if self.rto_ns <= 0 or self.rto_max_ns < self.rto_ns:
            raise ValueError("need 0 < rto_ns <= rto_max_ns")
        if self.backoff < 1.0:
            raise ValueError("backoff multiplier must be >= 1")
        if not 0.0 <= self.jitter_frac <= 1.0:
            raise ValueError("jitter fraction must be in [0, 1]")
        if self.max_retransmits < 1:
            raise ValueError("max_retransmits must be >= 1")


@dataclass(slots=True)
class _Segment:
    """One unacked wire segment held for possible retransmission."""

    seq: int
    message_id: int
    message_bytes: Bytes
    seg_bytes: Bytes
    last: bool
    payload: Any


class FlowReliability:
    """Sender-side go-back-N state of one flow."""

    __slots__ = (
        "flow",
        "config",
        "rng",
        "base_seq",
        "next_seq",
        "unacked",
        "retransmit_queue",
        "rto_current_ns",
        "retries_since_progress",
        "_timer",
        "_timeout_cb",
        "retransmits",
        "timeouts",
        "messages_aborted",
        "acks_received",
    )

    def __init__(
        self, flow: "Flow", config: ReliabilityConfig, rng: "np.random.Generator"
    ) -> None:
        self.flow = flow
        self.config = config
        self.rng = rng
        self.base_seq = 0
        self.next_seq = 0
        self.unacked: deque[_Segment] = deque()
        self.retransmit_queue: deque[_Segment] = deque()
        self.rto_current_ns = config.rto_ns
        self.retries_since_progress = 0
        self._timer = None
        self._timeout_cb = self._on_timeout  # cached bound method
        #: Segments re-sent (each wire retransmission counts once).
        self.retransmits = 0
        #: RTO expirations.
        self.timeouts = 0
        #: Head messages given up on after ``max_retransmits``.
        self.messages_aborted = 0
        self.acks_received = 0

    # -- sender window ----------------------------------------------------
    def window_free(self) -> bool:
        return len(self.unacked) < self.config.window_packets

    def pop_retransmit(self) -> _Segment:
        self.retransmits += 1
        return self.retransmit_queue.popleft()

    def register(self, msg: "_Message", seg_bytes: Bytes, last: bool) -> _Segment:
        """Record a freshly carved segment in the window; returns it."""
        seg = _Segment(
            seq=self.next_seq,
            message_id=msg.id,
            message_bytes=msg.size_bytes,
            seg_bytes=seg_bytes,
            last=last,
            payload=msg.payload if last else None,
        )
        self.next_seq += 1
        self.unacked.append(seg)
        return seg

    def on_sent(self) -> None:
        """Arm the RTO after a wire transmission if not already armed."""
        if self._timer is None and self.unacked:
            self._arm_timer()

    # -- acks -------------------------------------------------------------
    def on_ack(self, ack_next: int) -> None:
        """Cumulative ack: everything below ``ack_next`` is delivered."""
        self.acks_received += 1
        progressed = False
        unacked = self.unacked
        while unacked and unacked[0].seq < ack_next:
            unacked.popleft()
            progressed = True
        if ack_next > self.base_seq:
            self.base_seq = ack_next
        self._prune_retransmit_queue()
        if not progressed:
            return
        # Progress: reset backoff, restart (or disarm) the timer, and
        # re-pump — the window just opened.
        self.rto_current_ns = self.config.rto_ns
        self.retries_since_progress = 0
        self._cancel_timer()
        if unacked or self.retransmit_queue:
            self._arm_timer()
        self.flow.pump()

    def _prune_retransmit_queue(self) -> None:
        queue = self.retransmit_queue
        base = self.base_seq
        while queue and queue[0].seq < base:
            queue.popleft()

    # -- timer ------------------------------------------------------------
    def _arm_timer(self) -> None:
        delay = self.rto_current_ns
        jitter = self.config.jitter_frac
        if jitter > 0.0:
            delay = int(delay * (1.0 + jitter * float(self.rng.random())))
        self._timer = self.flow.nic.sim.schedule(max(1, delay), self._timeout_cb)

    def _cancel_timer(self) -> None:
        if self._timer is not None:
            self._timer.cancel()
            self._timer = None

    def _on_timeout(self) -> None:
        self._timer = None
        if not self.unacked:
            return
        self.timeouts += 1
        self.retries_since_progress += 1
        if self.retries_since_progress > self.config.max_retransmits:
            self._abort_head_message()
            if not (self.unacked or self.retransmit_queue):
                return
        else:
            # Go-back-N: rewind to the first unacked segment; the pump
            # re-sends the window under normal pacing.
            self.retransmit_queue = deque(self.unacked)
            self.rto_current_ns = min(
                self.config.rto_max_ns,
                int(self.rto_current_ns * self.config.backoff),
            )
        self._arm_timer()
        nic = self.flow.nic
        nic.mark_backlogged(self.flow)
        self.flow.pump()

    # -- abort ------------------------------------------------------------
    def _abort_head_message(self) -> None:
        """Give up on the head unacked message and resynchronise.

        Every unacked segment of that message is dropped from the window
        (the base advances past them), any unsent remainder of the
        message is removed from the flow queue with its TXQ reservation
        refunded, and an ``RDMA_RESET`` tells the receiver to skip to
        the new base and discard the partial reassembly.  Delivery of
        the message's payload is now the upper layer's problem — exactly
        what the NVMe-oF command timeout exists for.
        """
        unacked = self.unacked
        if not unacked:
            return
        mid = unacked[0].message_id
        new_base = self.base_seq
        while unacked and unacked[0].message_id == mid:
            new_base = unacked.popleft().seq + 1
        self.base_seq = max(self.base_seq, new_base)
        self._prune_retransmit_queue()
        flow = self.flow
        messages = flow._messages
        if messages and messages[0].id == mid:
            # Partially sent head message: refund the unsent remainder.
            msg = messages.popleft()
            remainder = msg.size_bytes - msg.sent_bytes
            if remainder > 0:
                flow.refund_queued(remainder)
                flow.nic.txq_refund(remainder)
        self.messages_aborted += 1
        self.retries_since_progress = 0
        self.rto_current_ns = self.config.rto_ns
        flow.nic._send_rel_reset(flow.dst, flow.id, self.base_seq, mid)
