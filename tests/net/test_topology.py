"""Topology builders and ECMP routing tests."""

import pytest

from repro.net.topology import Network, build_clos, build_dumbbell, build_star
from repro.sim.engine import Simulator


def test_star_structure():
    sim = Simulator()
    net = build_star(sim, ["a", "b", "c"])
    assert set(net.hosts) == {"a", "b", "c"}
    assert set(net.switches) == {"sw0"}
    sw = net.switches["sw0"]
    for host in net.hosts:
        assert sw.routes[host]


def test_star_needs_two_hosts():
    with pytest.raises(ValueError):
        build_star(Simulator(), ["solo"])


def test_duplicate_names_rejected():
    sim = Simulator()
    net = Network(sim)
    net.add_host("x")
    with pytest.raises(ValueError):
        net.add_host("x")
    with pytest.raises(ValueError):
        net.add_switch("x")


def test_host_single_uplink_enforced():
    sim = Simulator()
    net = Network(sim)
    net.add_host("h")
    net.add_switch("s1")
    net.add_switch("s2")
    net.connect("h", "s1", rate_gbps=40)
    with pytest.raises(ValueError):
        net.connect("h", "s2", rate_gbps=40)


def test_dumbbell_end_to_end():
    sim = Simulator()
    net = build_dumbbell(sim, ["l0", "l1"], ["r0"], bottleneck_gbps=10.0)
    got = []
    net.hosts["r0"].endpoint = lambda p, src, size: got.append(src)
    net.hosts["l0"].send_message("r0", 4096)
    net.hosts["l1"].send_message("r0", 4096)
    sim.run()
    assert sorted(got) == ["l0", "l1"]


def test_dumbbell_validation():
    with pytest.raises(ValueError):
        build_dumbbell(Simulator(), [], ["r"])


def test_clos_paper_dimensions():
    sim = Simulator()
    net = build_clos(sim)
    # 4 pods × (2 leaves + 4 ToRs) switches, 4 × 64 hosts.
    assert len(net.hosts) == 256
    assert len(net.switches) == 24
    # §IV-A: half initiators, half targets — the builder just provides
    # the 256 nodes; role split happens in the experiment.


def test_clos_small_end_to_end_cross_pod():
    sim = Simulator()
    net = build_clos(sim, n_pods=2, leaves_per_pod=2, tors_per_pod=2, hosts_per_tor=2)
    src, dst = "h0_0_0", "h1_1_1"
    got = []
    net.hosts[dst].endpoint = lambda p, s, size: got.append(s)
    net.hosts[src].send_message(dst, 8192)
    sim.run()
    assert got == [src]


def test_clos_ecmp_multiple_next_hops():
    sim = Simulator()
    net = build_clos(sim, n_pods=2, leaves_per_pod=2, tors_per_pod=2, hosts_per_tor=2)
    tor = net.switches["tor0_0"]
    # A cross-pod destination is reachable via both leaves.
    assert len(tor.routes["h1_0_0"]) == 2


def test_clos_same_pod_routing_stays_local():
    sim = Simulator()
    net = build_clos(sim, n_pods=2, leaves_per_pod=2, tors_per_pod=2, hosts_per_tor=2)
    got = []
    net.hosts["h0_1_0"].endpoint = lambda p, s, size: got.append(s)
    net.hosts["h0_0_0"].send_message("h0_1_0", 4096)
    sim.run()
    assert got == ["h0_0_0"]


def test_clos_validation():
    with pytest.raises(ValueError):
        build_clos(Simulator(), n_pods=0)


def test_total_counters():
    sim = Simulator()
    net = build_star(sim, ["a", "b"])
    assert sum(len(h.cnp_log) for h in net.hosts.values()) == 0
    assert sum(s.pauses_sent for s in net.switches.values()) == 0


def test_routes_to_all_hosts_from_all_switches():
    sim = Simulator()
    net = build_clos(sim, n_pods=2, leaves_per_pod=2, tors_per_pod=2, hosts_per_tor=2)
    for sw in net.switches.values():
        for host in net.hosts:
            assert host in sw.routes, f"{sw.name} missing route to {host}"


def test_duplicate_cable_rejected():
    sim = Simulator()
    net = Network(sim)
    net.add_switch("swA")
    net.add_switch("swB")
    net.connect("swA", "swB", rate_gbps=40.0)
    with pytest.raises(ValueError, match="duplicate cable"):
        net.connect("swA", "swB", rate_gbps=40.0)
    with pytest.raises(ValueError, match="duplicate cable"):
        net.connect("swB", "swA", rate_gbps=40.0)  # same pair, reversed


def test_self_loop_cable_rejected():
    sim = Simulator()
    net = Network(sim)
    net.add_switch("swA")
    with pytest.raises(ValueError, match="itself"):
        net.connect("swA", "swA", rate_gbps=40.0)


@pytest.mark.parametrize("a,b", [("ghost", "swA"), ("swA", "ghost")])
def test_connect_unknown_node_raises_key_error(a, b):
    sim = Simulator()
    net = Network(sim)
    net.add_switch("swA")
    with pytest.raises(KeyError, match="ghost"):
        net.connect(a, b, rate_gbps=40.0)
    assert net.switches["swA"]._out_links == []  # no half-made cable


def test_fidelity_tagging():
    sim = Simulator()
    net = build_star(sim, ["a", "b", "c"])
    assert net.fidelity_of("a") == "packet"
    net.tag_fidelity("b", "fluid")
    assert net.fidelity_of("b") == "fluid"
    assert net.fluid_hosts() == ["b"]
    with pytest.raises(KeyError):
        net.tag_fidelity("nope", "fluid")
    with pytest.raises(ValueError):
        net.tag_fidelity("a", "analog")


def test_build_clos_fluid_tagging():
    sim = Simulator()
    net = build_clos(
        sim,
        n_pods=2,
        leaves_per_pod=2,
        tors_per_pod=2,
        hosts_per_tor=4,
        fluid_hosts_per_tor=1,
    )
    fluid = net.fluid_hosts()
    # The *last* host of every ToR is tagged: 2 pods x 2 ToRs x 1.
    assert len(fluid) == 4
    assert all(name.endswith("_3") for name in fluid)
    with pytest.raises(ValueError):
        build_clos(sim, fluid_hosts_per_tor=99)


def test_path_links_follows_packet_forwarding():
    sim = Simulator()
    net = build_clos(
        sim, n_pods=2, leaves_per_pod=2, tors_per_pod=2, hosts_per_tor=2
    )
    src, dst = "h0_0_0", "h1_1_0"
    links = net.path_links(src, dst, flow_id=3)
    # Cross-pod: uplink, ToR->leaf, leaf->leaf', leaf'->ToR', downlink.
    assert len(links) == 5
    assert links[0] is net.hosts[src].link
    assert links[-1].dst is net.hosts[dst]
    # The walk uses the same ECMP pick the switches would.
    tor = links[0].dst
    ports = tor.routes[dst]
    expected = ports[3 % len(ports)] if len(ports) > 1 else ports[0]
    assert links[1] is tor.out_link(expected)
    # Same-pod stays under the pod's leaves (3 hops: up, across, down).
    assert len(net.path_links("h0_0_0", "h0_1_0")) <= 4
    with pytest.raises(KeyError):
        net.path_links("nope", dst)
    with pytest.raises(KeyError):
        net.path_links(src, "nope")
