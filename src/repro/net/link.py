"""Unidirectional links: serialization, propagation, PFC pause.

A :class:`Link` connects a transmitting device to a receiving device.
Packets entering the link queue in FIFO order (control packets jump the
queue), serialize at the link rate, then arrive at the receiver after
the propagation delay.  PFC pauses stop *data* transmission; control
packets still pass, as PFC operates per traffic class and control
traffic rides the lossless high-priority class.

Hot-path notes: a packet hop is two anonymous events
(``schedule_anon``).  The serialization finish is the cached bound
method :meth:`Link._finish` with the packet as its event argument, so
no closure is allocated per packet.  The arrival is the receiver's own
``receive(packet, dst_port)``, bound once when the link is built and
scheduled by ``_finish`` directly: no link-side trampoline sits between
the wire and the receiver, and dispatch logs name the arrival
``Switch.receive`` or ``NIC.receive``.  A test that counts arrivals
patches the receiver's class before the world is built (the devices
are slotted, so an instance cannot carry a wrapper).
``_finish`` calls :meth:`Link._try_start` only when packets are
queued; most finishes find the queue empty.  Serialization times are
memoised per packet size (MTU-dominated traffic hits a single dict
entry).  Nothing ever cancels an in-flight serialization or
propagation, so neither step needs an ``Event`` handle; every step,
bursts included, goes through that one call, and the heap entry format
stays private to :mod:`repro.sim`.  One link has at most one
serialization in flight and each lasts at least 1 ns, so its
deliveries never share a tick; a :meth:`Link.send_burst` burst is the
one case where several packets arrive together, and
:meth:`Link._deliver_burst` hands them to the receiver one by one.
"""

from __future__ import annotations

from collections import deque
from typing import Callable, Protocol

from repro.net.packet import Packet
from repro.sim.engine import Simulator
from repro.sim.units import Bytes, Gbps, Nanoseconds, gbps_to_bytes_per_ns

class Device(Protocol):
    """Anything that can terminate a link."""

    name: str

    def receive(self, packet: Packet, in_port: int) -> None: ...


class Link:
    """One direction of a cable."""

    __slots__ = (
        "sim",
        "rate_gbps",
        "delay_ns",
        "dst",
        "dst_port",
        "name",
        "_bytes_per_ns",
        "_queue",
        "_queued_bytes",
        "_busy",
        "paused",
        "on_depart",
        "bytes_sent",
        "packets_sent",
        "_ser_cache",
        "_finish_cb",
        "_fluid_load_bytes_per_ns",
        "_eff_bytes_per_ns",
        "_ns_per_byte",
        "_finish_burst_cb",
        "_deliver_burst_cb",
        "_receive",
    )

    def __init__(
        self,
        sim: Simulator,
        *,
        rate_gbps: Gbps,
        delay_ns: Nanoseconds,
        dst: Device,
        dst_port: int,
        name: str = "",
    ) -> None:
        if rate_gbps <= 0:
            raise ValueError(f"link rate must be positive, got {rate_gbps}")
        if delay_ns < 0:
            raise ValueError(f"link delay must be non-negative, got {delay_ns}")
        self.sim = sim
        self.rate_gbps = rate_gbps
        self.delay_ns = delay_ns
        self.dst = dst
        self.dst_port = dst_port
        self.name = name or f"->{dst.name}"
        self._bytes_per_ns = gbps_to_bytes_per_ns(rate_gbps)
        #: Fluid background load currently riding this link (dual-
        #: fidelity coupling, see :mod:`repro.net.fluid`); zero outside
        #: fluid mode.
        self._fluid_load_bytes_per_ns = 0.0
        #: Serialization rate the packet domain actually sees: capacity
        #: minus the fluid load.  Assigned (never derived arithmetically)
        #: when the load is zero, so packet-only runs use the exact same
        #: float as ``_bytes_per_ns`` and stay bit-identical.
        self._eff_bytes_per_ns = self._bytes_per_ns
        #: Reciprocal, precomputed for the burst path (which multiplies
        #: where the per-packet path divides, so the memo below keeps
        #: the K=1 path untouched).
        self._ns_per_byte = 1.0 / self._eff_bytes_per_ns
        self._queue: deque[Packet] = deque()
        self._queued_bytes = 0
        self._busy = False
        self.paused = False
        #: Called with each packet when its serialization finishes (used
        #: by switches for ingress-buffer accounting).
        self.on_depart: Callable[[Packet], None] | None = None
        self.bytes_sent = 0
        self.packets_sent = 0
        #: size -> serialization ns memo (one entry for MTU traffic).
        self._ser_cache: dict[int, int] = {}
        # Bound method cached once: scheduling it with the packet as an
        # event argument replaces the per-packet closure.
        self._finish_cb = self._finish
        self._finish_burst_cb = self._finish_burst
        self._deliver_burst_cb = self._deliver_burst
        #: The receiver's arrival handler, bound once.
        self._receive = dst.receive
        if sim.sanitizer is not None:
            sim.sanitizer.track_link(self)

    # -- queue state -----------------------------------------------------
    @property
    def queued_bytes(self) -> Bytes:
        return self._queued_bytes

    @property
    def queued_packets(self) -> int:
        return len(self._queue)

    # -- transmission ------------------------------------------------------
    def send(self, packet: Packet) -> None:
        """Enqueue a packet for transmission."""
        if not self._busy and not self.paused and not self._queue:
            # Idle link, empty queue (the common case on paced sender
            # uplinks): serialization starts immediately, so the FIFO
            # round-trip and its byte accounting would net to zero —
            # skip both and schedule the finish directly.
            size = packet.size_bytes
            self._busy = True
            ns = self._ser_cache.get(size)
            if ns is None:
                ns = max(1, int(size / self._eff_bytes_per_ns + 0.5))
                self._ser_cache[size] = ns
            self.sim.schedule_anon(ns, self._finish_cb, packet)
            return
        if packet.is_control:
            self._queue.appendleft(packet)
        else:
            self._queue.append(packet)
        self._queued_bytes += packet.size_bytes
        # _busy pre-check inlined: while serializing (half of all sends
        # land in that window) the call would be an immediate no-op.
        if not self._busy:
            self._try_start()

    def serialization_ns(self, size_bytes: Bytes) -> Nanoseconds:
        ns = self._ser_cache.get(size_bytes)
        if ns is None:
            ns = max(1, int(size_bytes / self._eff_bytes_per_ns + 0.5))
            self._ser_cache[size_bytes] = ns
        return ns

    def _try_start(self) -> None:
        if self._busy or not self._queue:
            return
        if self.paused and not self._queue[0].is_control:
            return
        packet = self._queue.popleft()
        size = packet.size_bytes
        self._queued_bytes -= size
        self._busy = True
        ns = self._ser_cache.get(size)
        if ns is None:
            ns = max(1, int(size / self._eff_bytes_per_ns + 0.5))
            self._ser_cache[size] = ns
        self.sim.schedule_anon(ns, self._finish_cb, packet)

    def _finish(self, packet: Packet) -> None:
        """Serialization done: hand off to propagation, start the next."""
        self._busy = False
        self.bytes_sent += packet.size_bytes
        self.packets_sent += 1
        on_depart = self.on_depart
        if on_depart is not None:
            on_depart(packet)
        # The arrival event is the receiver's own ``receive`` call.
        self.sim.schedule_anon(self.delay_ns, self._receive, packet, self.dst_port)
        # _try_start is a no-op on an empty queue, which most finishes
        # find: skip the call.
        if self._queue:
            self._try_start()

    # -- dual-fidelity coupling (fluid background load) ---------------------
    @property
    def fluid_load_bytes_per_ns(self) -> float:
        """Fluid background load currently consuming this link's capacity."""
        return self._fluid_load_bytes_per_ns

    def set_fluid_load(self, load_bytes_per_ns: float) -> None:
        """Couple fluid background load into the packet domain.

        The fluid share solver (:class:`repro.net.fluid.FluidDomain`)
        calls this on every update: background load consumes link
        capacity, so foreground packets serialize at the *residual* rate
        — longer serialization is exactly how fluid congestion inflates
        the queueing delay the packet domain observes.  The residual is
        floored at 1% of capacity (the solver's headroom keeps real
        loads below that anyway) so serialization times stay finite.

        ``load <= 0`` restores the pristine capacity float, keeping
        fluid-off runs bit-identical to builds without this method.
        """
        if load_bytes_per_ns <= 0.0:
            if self._fluid_load_bytes_per_ns == 0.0:
                return
            self._fluid_load_bytes_per_ns = 0.0
            eff = self._bytes_per_ns
        else:
            self._fluid_load_bytes_per_ns = load_bytes_per_ns
            eff = max(
                self._bytes_per_ns - load_bytes_per_ns, 0.01 * self._bytes_per_ns
            )
        if eff != self._eff_bytes_per_ns:
            self._eff_bytes_per_ns = eff
            self._ns_per_byte = 1.0 / eff
            self._ser_cache.clear()  # memoised per-size times are stale

    # -- burst transmission -------------------------------------------------
    def send_burst(self, packets: list[Packet]) -> None:
        """Admit a back-to-back burst as *one* serialization event.

        The caller (``Flow.pump`` with ``burst_segments >= 2``) vouches
        that the packets are admitted back-to-back under the current
        rate.  The whole burst serializes as a single event at the end
        of its span (the sum of per-packet times at the effective rate)
        and is delivered in one event — the LSO/GSO-style approximation
        that buys the dual-fidelity event-count reduction.  Any state
        that would make per-packet interleaving observable (busy wire,
        queued packets, PFC pause, a degenerate burst of < 2)
        falls back to per-packet :meth:`send`, which preserves exact
        semantics.
        """
        if (
            len(packets) < 2
            or self._busy
            or self.paused
            or self._queue
        ):
            send = self.send
            for packet in packets:
                send(packet)
            return
        ns_per_byte = self._ns_per_byte
        total_ns = 0
        for packet in packets:
            total_ns += max(1, int(packet.size_bytes * ns_per_byte + 0.5))
        self._busy = True
        self.sim.schedule_anon(total_ns, self._finish_burst_cb, packets)

    def _finish_burst(self, packets: list[Packet]) -> None:
        """Burst serialization done: account and propagate as one."""
        self._busy = False
        total = 0
        for packet in packets:
            total += packet.size_bytes
        self.bytes_sent += total
        self.packets_sent += len(packets)
        on_depart = self.on_depart
        if on_depart is not None:
            for packet in packets:
                on_depart(packet)
        self.sim.schedule_anon(self.delay_ns, self._deliver_burst_cb, packets)
        self._try_start()

    def _deliver_burst(self, packets: list[Packet]) -> None:
        receive = self._receive
        port = self.dst_port
        for packet in packets:
            receive(packet, port)

    # -- PFC -----------------------------------------------------------------
    def pause(self) -> None:
        self.paused = True

    def resume(self) -> None:
        self.paused = False
        self._try_start()
