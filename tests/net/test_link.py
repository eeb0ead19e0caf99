"""Link serialization, ordering, and PFC pause tests."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.net.link import Link
from repro.net.packet import Packet, PacketKind
from repro.sim.engine import Simulator


class Sink:
    def __init__(self, sim, name="sink"):
        self.sim = sim
        self.name = name
        self.received = []

    def receive(self, packet, in_port):
        self.received.append((self.sim.now, packet, in_port))


def make_link(rate=40.0, delay=1000):
    sim = Simulator()
    sink = Sink(sim)
    link = Link(sim, rate_gbps=rate, delay_ns=delay, dst=sink, dst_port=3)
    return sim, sink, link


def data(size=4096, src="a", dst="sink"):
    return Packet(kind=PacketKind.DATA, src=src, dst=dst, size_bytes=size)


def test_delivery_time_is_serialization_plus_delay():
    sim, sink, link = make_link(rate=40.0, delay=1000)
    link.send(data(4096))
    sim.run()
    # 4096 B at 5 B/ns = 819 ns + 1000 ns propagation.
    t, pkt, port = sink.received[0]
    assert t == 819 + 1000
    assert port == 3


def test_fifo_order_and_pipelining():
    sim, sink, link = make_link(rate=40.0, delay=1000)
    link.send(data(4096))
    link.send(data(4096))
    sim.run()
    t1, t2 = sink.received[0][0], sink.received[1][0]
    assert t2 - t1 == 819  # second waits one serialization, shares the wire


def test_control_packets_jump_queue():
    sim, sink, link = make_link()
    link.send(data(4096))
    link.send(data(4096))
    cnp = Packet(kind=PacketKind.CNP, src="a", dst="sink", size_bytes=64)
    link.send(cnp)
    sim.run()
    kinds = [p.kind for _, p, _ in sink.received]
    # First data was already serializing; the CNP passes the queued data.
    assert kinds == [PacketKind.DATA, PacketKind.CNP, PacketKind.DATA]


def test_pause_stops_data_but_not_control():
    sim, sink, link = make_link()
    link.pause()
    link.send(data(4096))
    link.send(Packet(kind=PacketKind.CNP, src="a", dst="sink", size_bytes=64))
    sim.run()
    kinds = [p.kind for _, p, _ in sink.received]
    assert kinds == [PacketKind.CNP]
    link.resume()
    sim.run()
    assert len(sink.received) == 2


def test_pause_mid_stream_then_resume():
    sim, sink, link = make_link()
    link.send(data(4096))
    sim.run()
    link.pause()
    link.send(data(4096))
    sim.run()
    assert len(sink.received) == 1
    link.resume()
    sim.run()
    assert len(sink.received) == 2


def test_queue_accounting():
    sim, sink, link = make_link()
    link.send(data(4096))
    link.send(data(4096))
    link.send(data(4096))
    # One is serializing, two queued.
    assert link.queued_packets == 2
    assert link.queued_bytes == 2 * 4096
    sim.run()
    assert link.queued_packets == 0
    assert link.queued_bytes == 0
    assert link.bytes_sent == 3 * 4096
    assert link.packets_sent == 3


def test_on_depart_hook():
    sim, sink, link = make_link()
    departed = []
    link.on_depart = lambda pkt: departed.append(pkt.size_bytes)
    link.send(data(1000))
    sim.run()
    assert departed == [1000]


def test_validation():
    sim = Simulator()
    sink = Sink(sim)
    with pytest.raises(ValueError):
        Link(sim, rate_gbps=0, delay_ns=0, dst=sink, dst_port=0)
    with pytest.raises(ValueError):
        Link(sim, rate_gbps=1, delay_ns=-1, dst=sink, dst_port=0)
    with pytest.raises(ValueError):
        Packet(kind=PacketKind.DATA, src="a", dst="b", size_bytes=0)


# -- property: one delivery per tick, except inside one burst ----------------

_sizes = st.integers(min_value=1, max_value=9000)
_link_ops = st.lists(
    st.one_of(
        st.tuples(st.just("send"), _sizes, st.booleans()),
        st.tuples(st.just("burst"), st.lists(_sizes, min_size=1, max_size=8)),
        st.tuples(st.just("pause")),
        st.tuples(st.just("resume")),
        st.tuples(
            st.just("fluid"),
            st.floats(min_value=0.0, max_value=6.0, allow_nan=False),
        ),
        st.tuples(st.just("advance"), st.integers(min_value=0, max_value=5000)),
    ),
    max_size=40,
)


@settings(max_examples=60, deadline=None)
@given(ops=_link_ops)
def test_deliveries_share_a_tick_only_within_one_burst(ops):
    """Mixed scalar sends (data and control), bursts, PFC pause/resume and
    fluid-load changes on one link: every packet is delivered, receive
    times never decrease, and two packets land in the same tick only
    when one ``send_burst`` call delivered both."""
    sim, sink, link = make_link(rate=40.0, delay=1000)
    burst_of: dict[int, int | None] = {}
    sent = []
    for n, op in enumerate(ops):
        kind = op[0]
        if kind == "send":
            _, size, control = op
            packet = Packet(
                kind=PacketKind.CNP if control else PacketKind.DATA,
                src="a", dst="sink", size_bytes=size,
            )
            burst_of[id(packet)] = None
            sent.append(packet)
            link.send(packet)
        elif kind == "burst":
            packets = [data(size) for size in op[1]]
            for packet in packets:
                burst_of[id(packet)] = n
            sent.extend(packets)
            link.send_burst(packets)
        elif kind == "pause":
            link.pause()
        elif kind == "resume":
            link.resume()
        elif kind == "fluid":
            link.set_fluid_load(op[1])
        else:
            sim.run(until=sim.now + op[1])
    link.resume()
    sim.run()

    assert sorted(id(p) for _, p, _ in sink.received) == sorted(id(p) for p in sent)
    times = [t for t, _, _ in sink.received]
    assert times == sorted(times)
    for (t0, a, _), (t1, b, _) in zip(sink.received, sink.received[1:]):
        if t0 == t1:
            assert burst_of[id(a)] is not None
            assert burst_of[id(a)] == burst_of[id(b)]
