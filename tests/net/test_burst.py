"""Burst-batched serialization tests (``Link.send_burst`` + burst pump)."""

import pytest

from repro.net.link import Link
from repro.net.nic import NICConfig
from repro.net.packet import Packet, PacketKind
from repro.net.topology import build_star
from repro.profiling.bench import incast_outputs, run_incast_cell
from repro.sim.engine import Simulator


class Sink:
    def __init__(self, sim, name="sink"):
        self.sim = sim
        self.name = name
        self.received = []

    def receive(self, packet, in_port):
        self.received.append((self.sim.now, packet))


def make_link(rate=40.0, delay=1000):
    sim = Simulator()
    sink = Sink(sim)
    link = Link(sim, rate_gbps=rate, delay_ns=delay, dst=sink, dst_port=0)
    return sim, sink, link


def data(size=4096):
    return Packet(kind=PacketKind.DATA, src="a", dst="sink", size_bytes=size)


def test_burst_segments_default_and_validation():
    assert NICConfig().burst_segments == 1
    with pytest.raises(ValueError):
        NICConfig(burst_segments=0)


def test_send_burst_total_time_matches_scalar_serialization():
    """One burst event finishes exactly when N scalar sends would."""
    sizes = [4096, 1024, 333, 8192]
    sim_a, sink_a, link_a = make_link()
    for s in sizes:
        link_a.send(data(s))
    sim_a.run()
    sim_b, sink_b, link_b = make_link()
    link_b.send_burst([data(s) for s in sizes])
    sim_b.run()
    # The burst's sum reproduces the scalar rounding per packet, so the
    # last-packet delivery instants coincide exactly.
    assert sink_b.received[-1][0] == sink_a.received[-1][0]
    assert len(sink_b.received) == len(sizes)
    assert link_b.bytes_sent == link_a.bytes_sent == sum(sizes)
    assert link_b.packets_sent == len(sizes)


def test_send_burst_single_packet_and_busy_fallback():
    sim, sink, link = make_link()
    link.send(data(4096))  # occupies the wire
    link.send_burst([data(1024), data(1024)])  # falls back to send()
    link.send_burst([data(512)])  # len < 2 -> scalar path
    sim.run()
    assert len(sink.received) == 4
    # FIFO order preserved through the fallback path.
    times = [t for t, _ in sink.received]
    assert times == sorted(times)
    assert link.bytes_sent == 4096 + 1024 + 1024 + 512


def test_send_burst_counts_one_event_per_burst():
    sim_a, _, link_a = make_link()
    for _ in range(8):
        link_a.send(data(1024))
    sim_a.run()
    sim_b, _, link_b = make_link()
    link_b.send_burst([data(1024) for _ in range(8)])
    sim_b.run()
    # Scalar: one finish and one delivery per packet.  Burst: one of each.
    assert sim_a.events_dispatched == 16
    assert sim_b.events_dispatched == 2


def test_burst_pump_delivers_every_message():
    """K=8 pump: same messages delivered as the classic scalar pump."""
    sim_scalar, net_scalar = run_incast_cell(
        n_senders=1, duration_ns=200_000, message_bytes=32 * 1024
    )
    sim_burst, net_burst = run_incast_cell(
        n_senders=1,
        duration_ns=200_000,
        message_bytes=32 * 1024,
        nic_config=NICConfig(burst_segments=8),
    )
    scalar_out = incast_outputs(net_scalar)
    burst_out = incast_outputs(net_burst)
    assert burst_out["messages_delivered"] == scalar_out["messages_delivered"]
    assert burst_out["bytes_received"] == scalar_out["bytes_received"]
    assert sim_burst.events_dispatched < sim_scalar.events_dispatched


def test_burst_respects_reliability_mode():
    """Reliability flows never take the burst path (seq numbering)."""
    from repro.net.reliability import ReliabilityConfig

    sim = Simulator()
    net = build_star(
        sim,
        ["s0", "r0"],
        nic_config=NICConfig(
            burst_segments=8, reliability=ReliabilityConfig()
        ),
    )
    net.hosts["s0"].send_message("r0", 64 * 1024)
    sim.run()
    assert net.hosts["r0"].messages_delivered == 1
    assert net.hosts["r0"].bytes_received == 64 * 1024
