"""The packet-level in-cast cell: the engine's standard network scenario.

:func:`build_incast_cell` / :func:`run_incast_cell` wire a small
packet-level in-cast: ``n_senders`` hosts blast messages at one
receiver through a star switch, overloading the receiver downlink so
ECN marking, CNPs, and DCQCN rate control all engage.  It exercises
every network hot path (link serialization, NIC pacing, DCQCN timers)
and is the scenario the golden dispatch trace is recorded from;
``benchmarks/perf`` times it as ``incast_observed``.

The cell is seed-free and RNG-stable (the only randomness is the
switch's seeded ECN draw), so a run is exactly reproducible.
"""

from __future__ import annotations

from repro.net.nic import NICConfig
from repro.net.topology import Network, build_star
from repro.sim.engine import Simulator
from repro.sim.units import US, gbps_to_bytes_per_ns


class _Feeder:
    """Keeps one sender's TXQ loaded with fixed-size messages."""

    __slots__ = ("sim", "nic", "dst", "message_bytes", "gap_ns", "end_ns", "_feed_cb")

    def __init__(self, sim, nic, dst, message_bytes, gap_ns, end_ns) -> None:
        self.sim = sim
        self.nic = nic
        self.dst = dst
        self.message_bytes = message_bytes
        self.gap_ns = gap_ns
        self.end_ns = end_ns
        self._feed_cb = self.feed  # bound once; rescheduled every tick

    def feed(self) -> None:
        if self.sim.now >= self.end_ns:
            return
        self.nic.send_message(self.dst, self.message_bytes)
        self.sim.schedule_anon(self.gap_ns, self._feed_cb)


def build_incast_cell(
    *,
    n_senders: int = 3,
    duration_ns: int = 200 * US,
    message_bytes: int = 32 * 1024,
    trace: bool = False,
    sim: Simulator | None = None,
    nic_config: NICConfig | None = None,
) -> tuple[Simulator, Network]:
    """Wire the in-cast scenario and schedule its feeders (do not run).

    Each sender offers line rate toward ``r0``; with ``n_senders`` > 1
    the receiver downlink is oversubscribed, the switch queue crosses
    the ECN Kmin, and DCQCN engages on every sender flow.
    ``nic_config`` reaches every host (e.g. ``burst_segments`` for the
    dual-fidelity burst-pump variants).
    """
    if n_senders < 1:
        raise ValueError("need at least one sender")
    sim = sim or Simulator(trace=trace)
    names = [f"s{i}" for i in range(n_senders)] + ["r0"]
    net = build_star(sim, names, rate_gbps=40.0, delay_ns=US, nic_config=nic_config)
    # Offered load per sender == line rate.
    gap_ns = max(1, int(message_bytes / gbps_to_bytes_per_ns(40.0)))
    for i in range(n_senders):
        feeder = _Feeder(
            sim, net.hosts[f"s{i}"], "r0", message_bytes, gap_ns, duration_ns
        )
        sim.schedule_at(i, feeder.feed)  # staggered by 1 ns for determinism
    return sim, net


def run_incast_cell(
    *,
    n_senders: int = 3,
    duration_ns: int = 200 * US,
    message_bytes: int = 32 * 1024,
    trace: bool = False,
    sim: Simulator | None = None,
    nic_config: NICConfig | None = None,
) -> tuple[Simulator, Network]:
    """Run the in-cast cell to ``duration_ns`` plus drain margin."""
    sim, net = build_incast_cell(
        n_senders=n_senders,
        duration_ns=duration_ns,
        message_bytes=message_bytes,
        trace=trace,
        sim=sim,
        nic_config=nic_config,
    )
    sim.run(until=duration_ns + 50 * US)
    return sim, net


def incast_outputs(net: Network) -> dict:
    """Externally visible outcomes of an in-cast run (for golden tests)."""
    receiver = net.hosts["r0"]
    senders = {
        name: nic for name, nic in net.hosts.items() if name != "r0"
    }
    return {
        "bytes_received": receiver.bytes_received,
        "messages_delivered": receiver.messages_delivered,
        "cnps_sent_per_sender": {
            name: len(nic.cnp_log) for name, nic in sorted(senders.items())
        },
        "final_rate_gbps": {
            name: flow.rate_control.current_rate_gbps
            for name, nic in sorted(senders.items())
            for flow in [nic.flows["r0"]]
            if "r0" in nic.flows
        },
        "cnp_counts": {
            name: nic.flows["r0"].rate_control.cnp_count
            for name, nic in sorted(senders.items())
            if "r0" in nic.flows
        },
        "switch_ecn_marks": net.switches["sw0"].ecn_marks,
        "switch_forwarded": net.switches["sw0"].packets_forwarded,
        "switch_dropped": net.switches["sw0"].packets_dropped,
    }
