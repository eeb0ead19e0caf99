"""NIC: TXQ accounting, pacing, CNP generation, reassembly."""

import pytest

from repro.net.nic import NICConfig
from repro.net.dcqcn import DCQCNConfig
from repro.net.topology import build_star
from repro.sim.engine import Simulator
from repro.sim.units import MS


def pair(nic_config=None):
    sim = Simulator()
    net = build_star(sim, ["a", "b"], nic_config=nic_config)
    return sim, net


def test_nic_config_validation():
    with pytest.raises(ValueError):
        NICConfig(mtu_bytes=0)
    with pytest.raises(ValueError):
        NICConfig(txq_capacity_bytes=0)
    with pytest.raises(ValueError):
        NICConfig(cnp_interval_ns=0)
    with pytest.raises(ValueError):
        NICConfig(max_link_backlog_packets=0)


def test_message_segmentation_and_reassembly():
    sim, net = pair(NICConfig(mtu_bytes=1000))
    got = []
    net.hosts["b"].endpoint = lambda p, src, size: got.append((p, src, size))
    net.hosts["a"].send_message("b", 5500, payload="tail")
    sim.run()
    # Delivered once, with the payload carried on the last segment.
    assert got == [("tail", "a", 5500)]
    assert net.hosts["b"].bytes_received == 5500


def test_txq_capacity_rejects_when_full():
    # Pacing at 0.1 Gbps: only the first MTU departs synchronously, the
    # rest waits in the TXQ so capacity accounting is observable.
    slow = DCQCNConfig(line_rate_gbps=0.1, min_rate_gbps=0.05)
    sim, net = pair(NICConfig(txq_capacity_bytes=10_000, dcqcn=slow))
    a = net.hosts["a"]
    assert a.send_message("b", 9_000)
    used_after_first_segment = 9_000 - 4096
    assert a.txq_free_bytes == 10_000 - used_after_first_segment
    assert not a.send_message("b", 6_000)  # would exceed capacity
    assert a.send_message("b", 5_000)


def test_txq_drains_as_segments_leave():
    sim, net = pair(NICConfig(txq_capacity_bytes=10_000))
    a = net.hosts["a"]
    a.send_message("b", 10_000)
    sim.run()
    assert a.txq_free_bytes == 10_000


def test_txq_drain_listener_fires():
    sim, net = pair()
    fired = []
    a = net.hosts["a"]
    a.txq_drain_listeners.append(lambda: fired.append(sim.now))
    a.send_message("b", 8192)
    sim.run()
    assert fired  # at least one drain notification


def test_flow_created_per_destination():
    sim, net = pair()
    a = net.hosts["a"]
    a.send_message("b", 100)
    a.send_message("b", 100)
    assert len(a.flows) == 1
    assert "b" in a.flows


def test_pacing_respects_flow_rate():
    # Flow rate limited to 1 Gbps while the link runs at 40.
    dcqcn = DCQCNConfig(line_rate_gbps=1.0, min_rate_gbps=0.1)
    sim, net = pair(NICConfig(dcqcn=dcqcn))
    got = []
    net.hosts["b"].endpoint = lambda p, src, size: got.append(sim.now)
    net.hosts["a"].send_message("b", 125_000)  # ~1 ms at 1 Gbps
    sim.run()
    # 31 segments; 30 pacing gaps of 4096 B / 0.125 B-per-ns each.
    assert got[0] >= 30 * 32_768


def test_send_ack_bypasses_txq():
    sim, net = pair(NICConfig(txq_capacity_bytes=1000))
    a = net.hosts["a"]
    a.send_message("b", 1000)  # TXQ now full
    got = []
    net.hosts["b"].endpoint = lambda p, src, size: got.append(p)
    a.send_ack("b", payload="ack!")
    sim.run()
    assert "ack!" in got


def test_cnp_generated_for_marked_packets_and_rate_limited():
    sim, net = pair(NICConfig(cnp_interval_ns=50_000))
    a, b = net.hosts["a"], net.hosts["b"]
    a.send_message("b", 40_000)
    sim.run()
    # Manually mark incoming data by replaying: send several marked
    # packets through b's receive path within one CNP interval.
    from repro.net.packet import Packet, PacketKind

    flow = a.flows["b"]
    for _ in range(5):
        pkt = Packet(
            kind=PacketKind.DATA, src="a", dst="b", size_bytes=1000,
            flow_id=flow.id, ecn_marked=True, message_id=999_999, message_bytes=10**9,
        )
        b.receive(pkt, 0)
    # Deliver the CNP but stop before DCQCN's recovery timers restore
    # the line rate.
    sim.run(until=sim.now + 10_000)
    assert len(b._last_cnp_ns) == 1
    assert flow.rate_control.cnp_count == 1
    assert flow.rate_control.current_rate_gbps < 40.0


def test_cnp_received_is_logged_at_sender_nic():
    sim, net = pair()
    a, b = net.hosts["a"], net.hosts["b"]
    from repro.net.packet import Packet, PacketKind

    a.send_message("b", 10_000)
    sim.run()
    flow = a.flows["b"]
    marked = Packet(
        kind=PacketKind.DATA, src="a", dst="b", size_bytes=1000,
        flow_id=flow.id, ecn_marked=True, message_id=888, message_bytes=10**9,
    )
    b.receive(marked, 0)
    sim.run()
    assert len(a.cnp_log) == 1  # the CNP traveled back to a


def test_send_message_validation():
    sim, net = pair()
    with pytest.raises(ValueError):
        net.hosts["a"].send_message("b", 0)


def test_messages_delivered_counter():
    sim, net = pair()
    net.hosts["a"].send_message("b", 100)
    net.hosts["a"].send_message("b", 100)
    sim.run()
    assert net.hosts["b"].messages_delivered == 2


def _data(src, dst, *, size, message_id, message_bytes, last=False):
    from repro.net.packet import Packet, PacketKind

    return Packet(
        kind=PacketKind.DATA, src=src, dst=dst, size_bytes=size,
        message_id=message_id, message_bytes=message_bytes, last_of_message=last,
    )


def test_resent_message_id_does_not_leak_reassembly_state():
    # A message id arrives partially (no last segment), then the message
    # is re-sent as a single packet carrying ``last_of_message``.  Before
    # the fix, delivery was keyed on byte-completeness alone: the lone
    # re-sent packet (1000 of 3000 accumulated... plus the stale 1000)
    # never summed to ``message_bytes``, so nothing was delivered and the
    # partial entry for id 7 leaked forever.
    sim, net = pair()
    b = net.hosts["b"]
    b.receive(_data("a", "b", size=1000, message_id=7, message_bytes=3000), 0)
    assert b.reassembly_pending == 1
    b.receive(_data("a", "b", size=1000, message_id=7, message_bytes=3000, last=True), 0)
    assert b.messages_delivered == 1
    assert b.reassembly_pending == 0  # nothing left behind


def test_last_of_message_always_clears_partial_state():
    # Even a short re-send (fewer bytes than message_bytes) must clear
    # the pending entry once its last segment arrives.
    sim, net = pair()
    b = net.hosts["b"]
    b.receive(_data("a", "b", size=500, message_id=3, message_bytes=9000), 0)
    b.receive(_data("a", "b", size=500, message_id=3, message_bytes=9000, last=True), 0)
    assert b.messages_delivered == 1
    assert b.reassembly_pending == 0


def test_reassembly_high_water_counts_concurrent_partials():
    sim, net = pair()
    b = net.hosts["b"]
    for mid in range(4):
        b.receive(_data("a", "b", size=100, message_id=mid, message_bytes=1000), 0)
    assert b.reassembly_pending == 4
    for mid in range(4):
        b.receive(_data("a", "b", size=900, message_id=mid, message_bytes=1000, last=True), 0)
    assert b.reassembly_pending == 0


def test_reassembly_holds_every_concurrent_partial():
    # Reassembly state is unbounded: no partial message is ever evicted,
    # so every byte received is delivered once its message completes.
    sim, net = pair()
    b = net.hosts["b"]
    n = 5_000
    for mid in range(n):
        b.receive(_data("a", "b", size=100, message_id=mid, message_bytes=1000), 0)
    assert b.reassembly_pending == n
    for mid in range(n):
        b.receive(_data("a", "b", size=900, message_id=mid, message_bytes=1000, last=True), 0)
    assert b.reassembly_pending == 0
    assert b.messages_delivered == n
    assert b.reassembly_bytes_delivered == b.bytes_received == n * 1000
