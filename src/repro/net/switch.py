"""Output-queued switch with RED-style ECN marking and PFC.

Forwarding: per-destination next-hop port lists installed by the
topology builder; among equal-cost ports the flow id picks one (ECMP),
keeping a flow's packets ordered.

ECN: on enqueue to an output port whose queue exceeds ``ecn_kmin``
bytes, the packet is marked with probability ramping linearly to
``ecn_pmax`` at ``ecn_kmax`` (and always beyond) — DCQCN's RED-like
marking on instantaneous queue length.

PFC: per-ingress-port byte accounting.  When the bytes buffered from an
upstream port exceed ``pfc_xoff_bytes``, a PAUSE is sent to that
neighbor; when it drains below ``pfc_xon_bytes``, a RESUME follows.
Pause frames ride the control class and preempt data on links.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.net.link import Link
from repro.net.packet import CONTROL_PACKET_BYTES, Packet, PacketKind
from repro.sim.engine import Simulator
from repro.sim.rng import make_rng


@dataclass(frozen=True, slots=True)
class SwitchConfig:
    """Buffer and marking parameters (defaults sized for 40 Gbps)."""

    ecn_kmin_bytes: int = 100 * 1024
    ecn_kmax_bytes: int = 400 * 1024
    ecn_pmax: float = 0.2
    pfc_xoff_bytes: int = 512 * 1024
    pfc_xon_bytes: int = 256 * 1024
    buffer_bytes: int = 16 * 1024 * 1024

    def __post_init__(self) -> None:
        if not 0 < self.ecn_kmin_bytes <= self.ecn_kmax_bytes:
            raise ValueError("need 0 < kmin <= kmax")
        if not 0.0 < self.ecn_pmax <= 1.0:
            raise ValueError("pmax must be in (0, 1]")
        if not 0 < self.pfc_xon_bytes <= self.pfc_xoff_bytes:
            raise ValueError("need 0 < xon <= xoff")
        if self.buffer_bytes <= self.pfc_xoff_bytes:
            raise ValueError("buffer must exceed the PFC threshold")


class Switch:
    """One switch; ports are added by the topology builder."""

    __slots__ = (
        "sim",
        "name",
        "config",
        "_buffer_bytes",
        "_ecn_kmin_bytes",
        "_pfc_xoff_bytes",
        "_pfc_xon_bytes",
        "_rng",
        "_out_links",
        "_neighbor_of_port",
        "routes",
        "_ingress_bytes",
        "_paused_upstream",
        "packets_forwarded",
        "packets_dropped",
        "ecn_marks",
        "pauses_sent",
        "_buffered_bytes",
    )

    def __init__(
        self,
        sim: Simulator,
        name: str,
        config: SwitchConfig | None = None,
        *,
        seed: int = 0,
    ) -> None:
        self.sim = sim
        self.name = name
        self.config = config or SwitchConfig()
        # Thresholds read on every forwarded packet, copied out of the
        # (frozen) config once.
        self._buffer_bytes = self.config.buffer_bytes
        self._ecn_kmin_bytes = self.config.ecn_kmin_bytes
        self._pfc_xoff_bytes = self.config.pfc_xoff_bytes
        self._pfc_xon_bytes = self.config.pfc_xon_bytes
        self._rng = make_rng(seed)
        self._out_links: list[Link] = []
        self._neighbor_of_port: dict[str, int] = {}  # neighbor name -> out port
        #: dst host name -> list of candidate out ports (ECMP set).
        self.routes: dict[str, list[int]] = {}
        self._ingress_bytes: dict[int, int] = {}
        self._paused_upstream: set[int] = set()
        self.packets_forwarded = 0
        #: Data packets dropped on buffer overflow.  The fabric is meant
        #: to be lossless (PFC pauses upstream first); ``run_testbed``
        #: fails a run in which this is non-zero.
        self.packets_dropped = 0
        self.ecn_marks = 0
        self.pauses_sent = 0
        self._buffered_bytes = 0
        if sim.sanitizer is not None:
            sim.sanitizer.track_switch(self)

    # -- wiring (topology builder) -----------------------------------------
    def add_port(self, link: Link, neighbor_name: str) -> int:
        """Register the outgoing link toward ``neighbor_name``."""
        port = len(self._out_links)
        self._out_links.append(link)
        self._neighbor_of_port[neighbor_name] = port
        self._ingress_bytes[port] = 0
        link.on_depart = self._on_link_depart
        return port

    def _on_link_depart(self, packet: Packet) -> None:
        # Departure accounting only needs the packet's recorded ingress
        # port, so one bound method serves every out-link (and, unlike
        # the factory closure it replaced, survives checkpoint pickling).
        size = packet.size_bytes
        in_port = packet._ingress_port
        if in_port is not None:
            ingress = self._ingress_bytes
            if in_port in ingress:
                # PFC ingress accounting, inlined as in receive().
                level = ingress[in_port] - size
                ingress[in_port] = level
                paused = self._paused_upstream
                if level > self._pfc_xoff_bytes:
                    if in_port not in paused:
                        paused.add(in_port)
                        self._send_pfc(in_port, PacketKind.PAUSE)
                elif paused and level < self._pfc_xon_bytes and in_port in paused:
                    paused.discard(in_port)
                    self._send_pfc(in_port, PacketKind.RESUME)
        self._buffered_bytes -= size

    def port_to(self, neighbor_name: str) -> int:
        return self._neighbor_of_port[neighbor_name]

    def out_link(self, port: int) -> Link:
        return self._out_links[port]

    # -- forwarding ------------------------------------------------------------
    def receive(self, packet: Packet, in_port: int) -> None:
        # Data packets are the overwhelming majority; their path is laid
        # out first with one is_control check and no PFC-kind tests.
        if not packet.is_control:
            ports = self.routes.get(packet.dst)
            if not ports:
                raise RuntimeError(f"{self.name}: no route to {packet.dst}")
            out_port = (
                ports[packet.flow_id % len(ports)] if len(ports) > 1 else ports[0]
            )
            link = self._out_links[out_port]
            size = packet.size_bytes
            if self._buffered_bytes + size > self._buffer_bytes:
                self.packets_dropped += 1
                return
            # ECN pre-check hoisted: below Kmin no mark is possible and no
            # RNG draw happens, so skipping the call is bit-identical.
            if link._queued_bytes > self._ecn_kmin_bytes:
                self._maybe_mark_ecn(packet, link)
            packet._ingress_port = in_port  # for departure accounting
            self._buffered_bytes += size
            # PFC ingress accounting: PAUSE the upstream neighbor above
            # XOFF, RESUME it below XON.  Inlined here and in
            # _on_link_depart, the two per-packet callers.
            ingress = self._ingress_bytes
            level = ingress.get(in_port, 0) + size
            ingress[in_port] = level
            paused = self._paused_upstream
            if level > self._pfc_xoff_bytes:
                if in_port not in paused:
                    paused.add(in_port)
                    self._send_pfc(in_port, PacketKind.PAUSE)
            elif paused and level < self._pfc_xon_bytes and in_port in paused:
                paused.discard(in_port)
                self._send_pfc(in_port, PacketKind.RESUME)
            link.send(packet)
            self.packets_forwarded += 1
            return
        if packet.kind in (PacketKind.PAUSE, PacketKind.RESUME):
            if packet.dst == self.name:
                self.handle_pfc(packet, in_port)
                return
        ports = self.routes.get(packet.dst)
        if not ports:
            raise RuntimeError(f"{self.name}: no route to {packet.dst}")
        out_port = ports[packet.flow_id % len(ports)] if len(ports) > 1 else ports[0]
        link = self._out_links[out_port]
        packet._ingress_port = None
        self._buffered_bytes += packet.size_bytes
        link.send(packet)
        self.packets_forwarded += 1

    def _maybe_mark_ecn(self, packet: Packet, link: Link) -> None:
        cfg = self.config
        qlen = link._queued_bytes
        if qlen <= cfg.ecn_kmin_bytes:
            return
        if qlen >= cfg.ecn_kmax_bytes:
            p = 1.0
        else:
            span = cfg.ecn_kmax_bytes - cfg.ecn_kmin_bytes
            p = cfg.ecn_pmax * (qlen - cfg.ecn_kmin_bytes) / span
        if self._rng.random() < p:
            packet.ecn_marked = True
            self.ecn_marks += 1

    # -- PFC -----------------------------------------------------------------
    def _send_pfc(self, in_port: int, kind: PacketKind) -> None:
        # The reverse direction of the same cable shares the port index by
        # construction (the topology builder adds both directions in one
        # call), so the out link at in_port reaches the upstream neighbor.
        if in_port >= len(self._out_links):
            return
        link = self._out_links[in_port]
        pfc = Packet(
            kind=kind,
            src=self.name,
            dst=link.dst.name,
            size_bytes=CONTROL_PACKET_BYTES,
        )
        pfc._ingress_port = None
        self._buffered_bytes += pfc.size_bytes
        link.send(pfc)
        if kind is PacketKind.PAUSE:
            self.pauses_sent += 1

    def handle_pfc(self, packet: Packet, in_port: int) -> None:
        """Apply a PAUSE/RESUME received from the neighbor on ``in_port``."""
        link = self._out_links[in_port]
        if packet.kind is PacketKind.PAUSE:
            link.pause()
        else:
            link.resume()
