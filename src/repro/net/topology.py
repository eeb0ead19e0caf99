"""Network container, topology builders, ECMP routing.

:class:`Network` owns hosts (NICs), switches, and links, and installs
per-switch routing tables (all next hops on shortest paths; ECMP choice
by flow id).  Builders:

* :func:`build_star` — N hosts on one switch (the paper's main
  experiment shape: one initiator + K targets makes the initiator's
  downlink the in-cast congestion point);
* :func:`build_dumbbell` — two switches joined by one bottleneck link;
* :func:`build_clos` — the §IV-A evaluation fabric: pods of ToR and leaf
  switches with hosts under the ToRs, leaves meshed across pods.
"""

from __future__ import annotations

from collections import deque

from repro.net.link import Link
from repro.net.nic import NIC, NICConfig
from repro.net.switch import Switch, SwitchConfig
from repro.sim.engine import Simulator
from repro.sim.units import US


class Network:
    """Hosts + switches + links + routing."""

    def __init__(self, sim: Simulator) -> None:
        self.sim = sim
        self.hosts: dict[str, NIC] = {}
        self.switches: dict[str, Switch] = {}
        #: Adjacency: node name -> {neighbour name: None}, both in
        #: insertion order (a dict used as an ordered set).
        self.graph: dict[str, dict[str, None]] = {}
        #: host name -> fidelity mode; absent = ``"packet"`` (the
        #: default exact DES).  ``"fluid"`` hosts carry background
        #: traffic modelled by :class:`repro.net.fluid.FluidDomain`.
        self.fidelity: dict[str, str] = {}

    # -- construction ------------------------------------------------------
    def add_host(self, name: str, config: NICConfig | None = None) -> NIC:
        if name in self.hosts or name in self.switches:
            raise ValueError(f"duplicate node name {name!r}")
        nic = NIC(self.sim, name, config)
        self.hosts[name] = nic
        self.graph[name] = {}
        return nic

    def add_switch(self, name: str, config: SwitchConfig | None = None) -> Switch:
        if name in self.hosts or name in self.switches:
            raise ValueError(f"duplicate node name {name!r}")
        switch = Switch(self.sim, name, config, seed=len(self.switches))
        self.switches[name] = switch
        self.graph[name] = {}
        return switch

    def node(self, name: str):
        if name in self.hosts:
            return self.hosts[name]
        return self.switches[name]

    def connect(self, a: str, b: str, *, rate_gbps: float, delay_ns: int = US) -> None:
        """Add a full-duplex cable between two nodes.

        Each node pair may be cabled at most once: a second ``connect``
        of the same pair used to silently overwrite the switch's
        neighbor->port map entry (orphaning the first cable's ports and
        corrupting PFC's port-symmetry assumption) — now it raises.
        """
        if a == b:
            raise ValueError(f"cannot connect node {a!r} to itself")
        if b in self.graph[a]:
            raise ValueError(
                f"duplicate cable {a!r} <-> {b!r}: the pair is already "
                f"connected, and re-cabling would overwrite the port map"
            )
        dev_a, dev_b = self.node(a), self.node(b)
        link_ab = Link(
            self.sim, rate_gbps=rate_gbps, delay_ns=delay_ns, dst=dev_b, dst_port=-1,
            name=f"{a}->{b}",
        )
        link_ba = Link(
            self.sim, rate_gbps=rate_gbps, delay_ns=delay_ns, dst=dev_a, dst_port=-1,
            name=f"{b}->{a}",
        )
        port_a = self._register(dev_a, link_ab, b)
        port_b = self._register(dev_b, link_ba, a)
        # in_port seen by each receiver == its own port index for the cable,
        # which is what PFC needs to pause the right upstream transmitter.
        link_ab.dst_port = port_b
        link_ba.dst_port = port_a
        self.graph[a][b] = None
        self.graph[b][a] = None

    @staticmethod
    def _register(device, out_link: Link, neighbor: str) -> int:
        if isinstance(device, Switch):
            return device.add_port(out_link, neighbor)
        if isinstance(device, NIC):
            if device.link is not None:
                raise ValueError(f"host {device.name} already has an uplink")
            device.attach_uplink(out_link)
            return 0
        raise TypeError(f"cannot attach links to {device!r}")

    # -- routing -----------------------------------------------------------
    def build_routes(self) -> None:
        """Install next-hop tables: one BFS per host, layered next hops."""
        for dst in self.hosts:
            dist = self._bfs_distances(dst)
            for sw_name, switch in self.switches.items():
                if sw_name not in dist:
                    continue
                d = dist[sw_name]
                ports = sorted(
                    switch.port_to(nb)
                    for nb in self.graph[sw_name]
                    if dist.get(nb, float("inf")) == d - 1
                )
                if ports:
                    switch.routes[dst] = ports

    def _bfs_distances(self, src: str) -> dict[str, int]:
        dist = {src: 0}
        frontier = deque([src])
        while frontier:
            node = frontier.popleft()
            for nb in self.graph[node]:
                if nb not in dist and nb not in self.hosts:
                    # Paths never transit through another host.
                    dist[nb] = dist[node] + 1
                    frontier.append(nb)
                elif nb not in dist:
                    dist[nb] = dist[node] + 1  # terminal hop into a host
        return dist

    # -- fidelity tagging (dual-fidelity mode) -----------------------------
    def tag_fidelity(self, host: str, mode: str) -> None:
        """Tag ``host`` as ``"packet"`` (exact DES) or ``"fluid"``."""
        if host not in self.hosts:
            raise KeyError(f"unknown host {host!r}")
        if mode not in ("packet", "fluid"):
            raise ValueError(f"fidelity must be 'packet' or 'fluid', got {mode!r}")
        self.fidelity[host] = mode

    def fidelity_of(self, host: str) -> str:
        """The host's fidelity mode (``"packet"`` unless tagged)."""
        return self.fidelity.get(host, "packet")

    def fluid_hosts(self) -> list[str]:
        """Hosts tagged fluid, in host-creation order."""
        return [h for h in self.hosts if self.fidelity.get(h) == "fluid"]

    def path_links(self, src: str, dst: str, flow_id: int = 0) -> list[Link]:
        """The directed links a flow traverses from ``src`` to ``dst``.

        Follows the exact forwarding the packet domain would use — host
        uplink, then each switch's installed route with the same
        ``flow_id % len(ports)`` ECMP pick — so a fluid flow's footprint
        matches where its packets would actually have gone.  Requires
        :meth:`build_routes` to have run.
        """
        if dst not in self.hosts:
            raise KeyError(f"unknown destination host {dst!r}")
        nic = self.hosts.get(src)
        if nic is None:
            raise KeyError(f"unknown source host {src!r}")
        if nic.link is None:
            raise RuntimeError(f"host {src} has no uplink")
        links = [nic.link]
        node = nic.link.dst
        hops = 0
        max_hops = len(self.switches) + 1
        while isinstance(node, Switch):
            ports = node.routes.get(dst)
            if not ports:
                raise RuntimeError(f"{node.name}: no route to {dst}")
            port = ports[flow_id % len(ports)] if len(ports) > 1 else ports[0]
            link = node.out_link(port)
            links.append(link)
            node = link.dst
            hops += 1
            if hops > max_hops:
                raise RuntimeError(f"routing loop walking {src} -> {dst}")
        return links

    # -- introspection -----------------------------------------------------
    def iter_links(self):
        """Yield every directed link, in deterministic creation order.

        Host uplinks first (insertion order), then each switch's out
        links by port index, so per-link totals sum in the same order
        on every run.
        """
        for host in self.hosts.values():
            if host.link is not None:
                yield host.link
        for switch in self.switches.values():
            yield from switch._out_links


def build_star(
    sim: Simulator,
    host_names: list[str],
    *,
    rate_gbps: float = 40.0,
    delay_ns: int = US,
    nic_config: NICConfig | None = None,
    switch_config: SwitchConfig | None = None,
) -> Network:
    """All hosts on one switch."""
    if len(host_names) < 2:
        raise ValueError("a star needs at least two hosts")
    net = Network(sim)
    net.add_switch("sw0", switch_config)
    for name in host_names:
        net.add_host(name, nic_config)
        net.connect(name, "sw0", rate_gbps=rate_gbps, delay_ns=delay_ns)
    net.build_routes()
    return net


def build_dumbbell(
    sim: Simulator,
    left_hosts: list[str],
    right_hosts: list[str],
    *,
    rate_gbps: float = 40.0,
    bottleneck_gbps: float | None = None,
    delay_ns: int = US,
    nic_config: NICConfig | None = None,
    switch_config: SwitchConfig | None = None,
) -> Network:
    """Two access switches joined by one (optionally slower) trunk."""
    if not left_hosts or not right_hosts:
        raise ValueError("both sides need at least one host")
    net = Network(sim)
    net.add_switch("swL", switch_config)
    net.add_switch("swR", switch_config)
    net.connect("swL", "swR", rate_gbps=bottleneck_gbps or rate_gbps, delay_ns=delay_ns)
    for name in left_hosts:
        net.add_host(name, nic_config)
        net.connect(name, "swL", rate_gbps=rate_gbps, delay_ns=delay_ns)
    for name in right_hosts:
        net.add_host(name, nic_config)
        net.connect(name, "swR", rate_gbps=rate_gbps, delay_ns=delay_ns)
    net.build_routes()
    return net


def build_clos(
    sim: Simulator,
    *,
    n_pods: int = 4,
    leaves_per_pod: int = 2,
    tors_per_pod: int = 4,
    hosts_per_tor: int = 16,
    rate_gbps: float = 40.0,
    delay_ns: int = US,
    nic_config: NICConfig | None = None,
    switch_config: SwitchConfig | None = None,
    fluid_hosts_per_tor: int = 0,
) -> Network:
    """The §IV-A Clos: pods of (leaf, ToR) layers with hosts under ToRs.

    Within a pod every ToR connects to every leaf; leaves are meshed
    across pods so inter-pod traffic crosses exactly one remote leaf.
    The paper's full fabric is the default: 4 pods × (2 leaves + 4 ToRs
    + 64 hosts) = 256 hosts.  Host names are ``h<pod>_<tor>_<i>``.

    ``fluid_hosts_per_tor`` tags the *last* that many hosts of every ToR
    as fluid-fidelity (see :meth:`Network.tag_fidelity`): their
    background traffic is meant for a :class:`repro.net.fluid.
    FluidDomain`, while the low-indexed hosts stay packet-exact.
    """
    for val, label in (
        (n_pods, "n_pods"),
        (leaves_per_pod, "leaves_per_pod"),
        (tors_per_pod, "tors_per_pod"),
        (hosts_per_tor, "hosts_per_tor"),
    ):
        if val < 1:
            raise ValueError(f"{label} must be >= 1")
    if not 0 <= fluid_hosts_per_tor <= hosts_per_tor:
        raise ValueError(
            f"fluid_hosts_per_tor must be in [0, {hosts_per_tor}], "
            f"got {fluid_hosts_per_tor}"
        )
    net = Network(sim)
    leaf_names: list[str] = []
    for p in range(n_pods):
        pod_leaves = []
        for l in range(leaves_per_pod):
            name = f"leaf{p}_{l}"
            net.add_switch(name, switch_config)
            pod_leaves.append(name)
            leaf_names.append(name)
        for t in range(tors_per_pod):
            tor = f"tor{p}_{t}"
            net.add_switch(tor, switch_config)
            for leaf in pod_leaves:
                net.connect(tor, leaf, rate_gbps=rate_gbps, delay_ns=delay_ns)
            for i in range(hosts_per_tor):
                host = f"h{p}_{t}_{i}"
                net.add_host(host, nic_config)
                net.connect(host, tor, rate_gbps=rate_gbps, delay_ns=delay_ns)
                if i >= hosts_per_tor - fluid_hosts_per_tor:
                    net.tag_fidelity(host, "fluid")
    # Leaf full mesh across pods (same-pod leaves stay unconnected: ToRs
    # already join them).
    for i, a in enumerate(leaf_names):
        for b in leaf_names[i + 1 :]:
            if a.split("_")[0] != b.split("_")[0]:
                net.connect(a, b, rate_gbps=rate_gbps, delay_ns=delay_ns)
    net.build_routes()
    return net
