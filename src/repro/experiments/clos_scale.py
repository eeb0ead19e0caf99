"""Clos-at-scale cell: the dual-fidelity engine's headline scenario.

The paper's evaluation fabric (4-pod Clos, 256 hosts) with hundreds of
MMPP-class background tenants is far beyond what per-packet simulation
sustains — §IV-A's all-packet runs cap out at a handful of tenants.
This cell runs that fabric the dual-fidelity way:

* **background**: ``n_tenants`` tenant flows between fluid-tagged hosts
  are handed to a :class:`~repro.net.fluid.FluidDomain` — max-min fair
  shares, mean-field DCQCN, and capacity coupling into the packet
  domain, at a few events per control interval *total*;
* **foreground**: ``n_foreground_flows`` packet-level flows between
  packet-fidelity hosts keep full per-packet fidelity (ECN draws, CNPs,
  DCQCN timers), with the burst-batched pump
  (``NICConfig.burst_segments``) coalescing their serialization events.

The result records the event-count reduction against the *all-packet
projection*: dispatched events plus what serving the fluid bytes as MTU
packets would have cost (:meth:`FluidDomain.projected_packet_events`).
That ratio is the cell's acceptance metric (>= 10x at defaults); the
``clos_fluid`` workload of ``benchmarks/perf`` checks it on every run.
"""

from __future__ import annotations

import time as _time
from dataclasses import dataclass

from repro.net.fluid import FluidConfig, FluidDomain
from repro.net.nic import NIC, NICConfig
from repro.net.topology import Network, build_clos
from repro.sim.engine import Simulator
from repro.sim.rng import make_rng
from repro.sim.units import MS, US

__all__ = ["ClosScaleConfig", "ClosScaleResult", "build_clos_scale_cell", "run_clos_scale_cell"]


@dataclass(frozen=True)
class ClosScaleConfig:
    """Scenario knobs (defaults = the acceptance-scale cell)."""

    # Fabric (build_clos defaults: 4 pods x 2 leaves x 4 ToRs x 16 hosts).
    n_pods: int = 4
    leaves_per_pod: int = 2
    tors_per_pod: int = 4
    hosts_per_tor: int = 16
    #: Hosts per ToR handed to the fluid domain (the last that many).
    fluid_hosts_per_tor: int = 8
    # Background (fluid) tenants.
    n_tenants: int = 200
    #: Nominal per-tenant demand; each tenant draws a seeded multiplier
    #: in [0.5, 1.5) so the tenant population is heterogeneous.
    tenant_demand_gbps: float = 3.0
    # Foreground (packet-level) flows.
    n_foreground_flows: int = 8
    foreground_message_bytes: int = 64 * 1024
    foreground_interarrival_ns: int = 150 * US
    #: Burst-batched pump coalescing factor (1 = classic per-packet).
    burst_segments: int = 8
    # Run control.
    duration_ns: int = 100 * MS
    fluid_update_interval_ns: int = 100 * US
    seed: int = 7
    #: ``False`` / ``True`` / ``"stride:K"``, as everywhere else.
    sanitize: bool | str = False

    def __post_init__(self) -> None:
        if self.n_tenants < 0 or self.n_foreground_flows < 1:
            raise ValueError("need >= 0 tenants and >= 1 foreground flow")
        if self.fluid_hosts_per_tor >= self.hosts_per_tor:
            raise ValueError("need at least one packet-fidelity host per ToR")
        if self.duration_ns <= 0:
            raise ValueError("duration must be positive")


@dataclass(frozen=True)
class ClosScaleResult:
    """Outcome + scale accounting of one Clos cell run."""

    events_dispatched: int
    wall_s: float
    sim_end_ns: int
    fluid_updates: int
    fluid_flows: int
    fluid_bytes_served: float
    foreground_bytes_received: int
    foreground_messages_delivered: int
    #: Dispatched events plus the all-packet cost of the fluid bytes.
    projected_packet_events: int

    @property
    def events_per_sec(self) -> float:
        return self.events_dispatched / self.wall_s if self.wall_s > 0 else 0.0

    @property
    def event_reduction(self) -> float:
        """All-packet projection over actually dispatched events."""
        if self.events_dispatched == 0:
            return 0.0
        return self.projected_packet_events / self.events_dispatched

    def as_dict(self) -> dict:
        return {
            "events_dispatched": self.events_dispatched,
            "wall_s": round(self.wall_s, 6),
            "events_per_sec": round(self.events_per_sec),
            "sim_end_ns": self.sim_end_ns,
            "fluid_updates": self.fluid_updates,
            "fluid_flows": self.fluid_flows,
            "fluid_bytes_served": round(self.fluid_bytes_served),
            "foreground_bytes_received": self.foreground_bytes_received,
            "foreground_messages_delivered": self.foreground_messages_delivered,
            "projected_packet_events": self.projected_packet_events,
            "event_reduction": round(self.event_reduction, 2),
        }


class _ForegroundSource:
    """Feeds one packet-level flow a message every fixed interval."""

    __slots__ = ("sim", "nic", "dst", "message_bytes", "gap_ns", "end_ns", "_send_cb")

    def __init__(
        self,
        sim: Simulator,
        nic: NIC,
        dst: str,
        message_bytes: int,
        gap_ns: int,
        end_ns: int,
    ) -> None:
        self.sim = sim
        self.nic = nic
        self.dst = dst
        self.message_bytes = message_bytes
        self.gap_ns = gap_ns
        self.end_ns = end_ns
        self._send_cb = self.send

    def send(self) -> None:
        if self.sim.now >= self.end_ns:
            return
        self.nic.send_message(self.dst, self.message_bytes)
        self.sim.schedule_anon(self.gap_ns, self._send_cb)


def _pick_foreground_pairs(net: Network, config: ClosScaleConfig) -> list[tuple[str, str]]:
    """Cross-pod (src, dst) pairs over packet-fidelity hosts.

    Host ``h<pod>_<tor>_0`` is packet-fidelity by construction
    (``fluid_hosts_per_tor < hosts_per_tor`` tags only the tail), so
    pairing pod ``p`` with pod ``p+1`` at increasing ToR indices gives
    deterministic pairs whose paths cross the leaf mesh — the part of
    the fabric the fluid tenants congest.
    """
    pairs: list[tuple[str, str]] = []
    for i in range(config.n_foreground_flows):
        src_pod = i % config.n_pods
        dst_pod = (src_pod + 1) % config.n_pods
        tor = (i // config.n_pods) % config.tors_per_pod
        src = f"h{src_pod}_{tor}_0"
        dst = f"h{dst_pod}_{tor}_0"
        if src not in net.hosts or dst not in net.hosts:
            raise ValueError(
                f"foreground flow {i} needs hosts {src}/{dst}; "
                "fabric too small for n_foreground_flows"
            )
        pairs.append((src, dst))
    return pairs


@dataclass
class ClosScaleCell:
    """A built Clos cell: the world a checkpoint of its run saves."""

    sim: Simulator
    net: Network
    domain: FluidDomain
    mtu_bytes: int
    until_ns: int

    def result(self, dispatched: int, wall_s: float) -> ClosScaleResult:
        """Account the finished run (``dispatched`` events in ``wall_s``)."""
        fg_bytes = 0
        fg_messages = 0
        for nic in self.net.hosts.values():
            fg_bytes += nic.bytes_received
            fg_messages += nic.messages_delivered
        return ClosScaleResult(
            events_dispatched=dispatched,
            wall_s=wall_s,
            sim_end_ns=self.sim.now,
            fluid_updates=self.domain.updates,
            fluid_flows=len(self.domain.flows),
            fluid_bytes_served=self.domain.total_bytes_served(),
            foreground_bytes_received=fg_bytes,
            foreground_messages_delivered=fg_messages,
            projected_packet_events=dispatched
            + self.domain.projected_packet_events(self.mtu_bytes),
        )


def build_clos_scale_cell(config: ClosScaleConfig | None = None) -> ClosScaleCell:
    """Build the dual-fidelity Clos cell and schedule its traffic."""
    config = config or ClosScaleConfig()
    sim = Simulator(sanitize=config.sanitize)
    nic_config = NICConfig(burst_segments=config.burst_segments)
    net = build_clos(
        sim,
        n_pods=config.n_pods,
        leaves_per_pod=config.leaves_per_pod,
        tors_per_pod=config.tors_per_pod,
        hosts_per_tor=config.hosts_per_tor,
        nic_config=nic_config,
        fluid_hosts_per_tor=config.fluid_hosts_per_tor,
    )
    domain = FluidDomain(
        sim,
        net,
        FluidConfig(update_interval_ns=config.fluid_update_interval_ns),
    )
    # Background tenants: seeded heterogeneous demands between fluid
    # hosts, destination offset by a stride coprime-ish with the host
    # count so paths spread over the leaf mesh.
    fluid_hosts = net.fluid_hosts()
    rng = make_rng(config.seed)
    n_fluid = len(fluid_hosts)
    if config.n_tenants > 0 and n_fluid < 2:
        raise ValueError("fluid tenants need >= 2 fluid-tagged hosts")
    for i in range(config.n_tenants):
        src = fluid_hosts[i % n_fluid]
        dst = fluid_hosts[(i + n_fluid // 2 + 1) % n_fluid]
        if dst == src:
            dst = fluid_hosts[(i + 1) % n_fluid]
        demand = config.tenant_demand_gbps * (0.5 + float(rng.random()))
        domain.add_flow(src, dst, demand)
    domain.start(until_ns=config.duration_ns)
    # Foreground packet-level flows.
    for src, dst in _pick_foreground_pairs(net, config):
        source = _ForegroundSource(
            sim,
            net.hosts[src],
            dst,
            config.foreground_message_bytes,
            config.foreground_interarrival_ns,
            config.duration_ns,
        )
        sim.schedule_anon(1, source._send_cb)
    return ClosScaleCell(sim, net, domain, nic_config.mtu_bytes, config.duration_ns + 500 * US)


def run_clos_scale_cell(config: ClosScaleConfig | None = None) -> ClosScaleResult:
    """Build, run, and account the dual-fidelity Clos cell."""
    cell = build_clos_scale_cell(config)
    t0 = _time.perf_counter()
    dispatched = cell.sim.run(until=cell.until_ns)
    return cell.result(dispatched, _time.perf_counter() - t0)
