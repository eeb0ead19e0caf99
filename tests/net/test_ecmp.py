"""ECMP path selection: per-flow stability (the in-order guarantee)."""

from repro.net.packet import Packet, PacketKind
from repro.net.switch import Switch
from repro.net.topology import build_clos
from repro.sim.engine import Simulator
from repro.sim.units import MS


def test_flow_packets_stay_on_one_path(monkeypatch):
    """All packets of one flow cross the same leaf (no reordering)."""
    src, dst = "h0_0_0", "h1_1_0"
    leaf_counts: dict[str, int] = {}
    receive = Switch.receive

    def counting(sw, packet, in_port):
        if sw.name.startswith("leaf") and packet.kind is PacketKind.DATA and packet.dst == dst:
            leaf_counts[sw.name] = leaf_counts.get(sw.name, 0) + 1
        receive(sw, packet, in_port)

    # Links bind their receiver's ``receive`` when the world is built.
    monkeypatch.setattr(Switch, "receive", counting)
    sim = Simulator()
    net = build_clos(sim, n_pods=2, leaves_per_pod=2, tors_per_pod=2, hosts_per_tor=2)

    for _ in range(20):
        net.hosts[src].send_message(dst, 4096)
    sim.run(until=2 * MS)
    used = [n for n, c in leaf_counts.items() if c > 0]
    # The flow hashes onto exactly one leaf per pod layer crossing.
    pod0 = [n for n in used if n.startswith("leaf0")]
    pod1 = [n for n in used if n.startswith("leaf1")]
    assert len(pod0) == 1
    assert len(pod1) == 1


def test_different_flows_can_take_different_paths():
    """Across many flows, ECMP spreads load over the parallel leaves."""
    sim = Simulator()
    net = build_clos(sim, n_pods=2, leaves_per_pod=2, tors_per_pod=2, hosts_per_tor=4)
    tor = net.switches["tor0_0"]
    dst = "h1_0_0"
    ports = set()
    for flow_id in range(32):
        pkt = Packet(
            kind=PacketKind.DATA, src="h0_0_0", dst=dst, size_bytes=64,
            flow_id=flow_id, message_id=flow_id, message_bytes=64,
        )
        candidates = tor.routes[dst]
        ports.add(candidates[pkt.flow_id % len(candidates)])
    assert len(ports) == 2  # both uplinks used across the flow population


def test_delivery_in_order_within_flow():
    sim = Simulator()
    net = build_clos(sim, n_pods=2, leaves_per_pod=2, tors_per_pod=2, hosts_per_tor=2)
    src, dst = "h0_0_0", "h1_0_1"
    order = []
    net.hosts[dst].endpoint = lambda p, s, size: order.append(p)
    for i in range(15):
        net.hosts[src].send_message(dst, 4096, payload=i)
    sim.run(until=2 * MS)
    assert order == sorted(order)
    assert len(order) == 15
