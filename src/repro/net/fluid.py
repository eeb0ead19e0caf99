"""Fluid-approximated background flows for dual-fidelity simulation.

Packet-level DES costs ~2 heap events per packet per hop, which caps a
full Clos fabric with hundreds of tenants well below the paper's
evaluation scale.  This module implements the flow-level escape hatch
("Scalable Tail Latency Estimation for Data Center Networks",
PAPERS.md): flows tagged *fluid* are modelled as piecewise-constant
rates instead of packets.  Between control updates nothing about a
fluid flow is simulated at all — its state advances in closed form — so
a tenant pushing gigabytes costs a handful of events per millisecond
rather than hundreds of thousands.

The pieces:

* :class:`FluidFlow` — one background flow: an offered demand, the path
  of :class:`~repro.net.link.Link` objects its packets would have
  taken (same ECMP pick, see :meth:`repro.net.topology.Network.
  path_links`), a mean-field DCQCN rate limit, and the max-min share
  the solver last granted it.
* :class:`FluidDomain` — owns the flows and the control loop.  On every
  flow arrival/departure and on a recurring coarse clock
  (:meth:`repro.sim.engine.Simulator.schedule_recurring_anon`) it:

  1. settles ``rate * dt`` served bytes per flow up to now (the
     piecewise-constant integral, one piece per rate change);
  2. samples each shared link's *foreground* (packet-domain) rate from
     its ``bytes_sent`` delta;
  3. derives a per-link ECN marking probability from total utilization
     (the fluid analogue of RED on queue length), combines it along
     each flow's path, and applies the mean-field DCQCN step
     (:func:`repro.net.dcqcn.fluid_rate_step`);
  4. re-solves max-min fair shares by water-filling over link capacity
     left after headroom and foreground load, each flow capped at
     ``min(demand, cc_rate)``;
  5. pushes the summed per-link fluid load into the packet domain via
     :meth:`~repro.net.link.Link.set_fluid_load`, which stretches
     foreground serialization to the residual rate.

Steps 2 and 5 are the two directions of the coupling contract: the
packet domain sees fluid load as reduced link capacity; the fluid
domain sees packet load as reduced fair-share capacity.

The sanitizer (check group ``"fluids"``) asserts conservation — per-
link share sums are non-negative, match the pushed load, and never
exceed capacity — plus the network-calculus arrival-curve envelope
("Network Calculus Characterization of Congestion Control", PAPERS.md):
a flow's cumulative served bytes stay under ``rho * t + sigma`` with
``rho`` its demand and ``sigma`` a configured slack of update
intervals.  Both hold by construction of the solver, so a violation
means real state corruption, not model noise.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any

import numpy as np
import numpy.typing as npt

from repro.net.dcqcn import DCQCNConfig, FloatArray, fluid_rate_step
from repro.sim.engine import Simulator
from repro.sim.units import Bytes, Nanoseconds, gbps_to_bytes_per_ns

if TYPE_CHECKING:
    from repro.net.link import Link
    from repro.net.topology import Network

__all__ = ["FluidConfig", "FluidFlow", "FluidDomain"]


@dataclass(frozen=True)
class FluidConfig:
    """Control-loop parameters of a :class:`FluidDomain`."""

    #: Coarse control clock: shares, CC state, and served-byte accrual
    #: advance this often.  ~100 µs ≈ 2x the DCQCN timer period — finer
    #: buys little (the mean-field CC is already an interval average),
    #: coarser lets the coupling lag visible congestion.
    update_interval_ns: Nanoseconds = 100_000
    #: Fraction of a link's capacity fluid traffic may occupy.  The
    #: remainder is guaranteed residual bandwidth for foreground
    #: packets, so the packet domain can never be starved outright.
    headroom: float = 0.95
    #: Utilization (fluid + foreground, fraction of capacity) where ECN
    #: marking starts / saturates — the fluid analogue of the switch's
    #: Kmin/Kmax queue thresholds.
    ecn_kmin_util: float = 0.70
    ecn_kmax_util: float = 0.98
    #: Marking probability at ``ecn_kmax_util`` (1.0 beyond, like the
    #: switch's RED ramp).
    ecn_pmax: float = 0.2
    #: Mean-field DCQCN parameters (shared by every flow in the domain).
    dcqcn: DCQCNConfig = field(default_factory=DCQCNConfig)
    #: Arrival-curve slack ``sigma``, in update intervals: the envelope
    #: invariant allows ``demand * (elapsed + this * interval)`` served
    #: bytes.  2 covers the worst case of an arrival mid-interval plus
    #: the end-of-window accrual granularity.
    envelope_slack_intervals: int = 2

    def __post_init__(self) -> None:
        if self.update_interval_ns <= 0:
            raise ValueError("update interval must be positive")
        if not 0.0 < self.headroom <= 1.0:
            raise ValueError("headroom must be in (0, 1]")
        if not 0.0 < self.ecn_kmin_util <= self.ecn_kmax_util:
            raise ValueError("need 0 < kmin_util <= kmax_util")
        if not 0.0 < self.ecn_pmax <= 1.0:
            raise ValueError("pmax must be in (0, 1]")
        if self.envelope_slack_intervals < 1:
            raise ValueError("envelope slack must be >= 1 interval")


def _mark_probability(utilization: FloatArray, config: FluidConfig) -> FloatArray:
    """RED-style marking ramp over per-link utilization (not queue length)."""
    span = config.ecn_kmax_util - config.ecn_kmin_util
    ramp = config.ecn_pmax * (utilization - config.ecn_kmin_util) / span
    saturated = np.where(utilization >= config.ecn_kmax_util, 1.0, ramp)
    return np.where(utilization <= config.ecn_kmin_util, 0.0, saturated)


def _column(name: str, doc: str) -> Any:
    """A :class:`FluidFlow` field stored in its domain's ``name`` array."""

    def get(flow: FluidFlow) -> Any:
        return getattr(flow._domain, name)[flow.id].item()

    def put(flow: FluidFlow, value: Any) -> None:
        getattr(flow._domain, name)[flow.id] = value

    return property(get, put, doc=doc)


class FluidFlow:
    """One fluid-modelled background flow: a view of row ``id`` of its
    domain's per-flow arrays, which its numeric properties read and write."""

    __slots__ = ("id", "src", "dst", "links", "start_ns", "_domain")

    demand_bytes_per_ns = _column(
        "_demand", "Offered load (the arrival-curve rate ``rho``); fixed for life."
    )
    active = _column("_active", "False once the flow has departed.")
    rate_bytes_per_ns = _column(
        "_rate", "Share the solver last granted (``<= min(demand, cc_rate)``)."
    )
    cc_rate_gbps = _column(
        "_cc_gbps", "Mean-field DCQCN rate limit; starts at line rate like the RP."
    )
    cc_rate_bytes_per_ns = _column("_cc", "``cc_rate_gbps`` in B/ns.")
    alpha = _column(
        "_alpha",
        "Congestion-severity EWMA; 0 until marking is first seen (the RP's "
        "``initial_alpha`` only matters once a CNP arrives, and the "
        "mean-field EWMA converges there within ~1/g updates).",
    )
    bytes_served = _column("_served", "Piecewise-constant integral of the granted rate.")

    def __init__(
        self,
        domain: FluidDomain,
        flow_id: int,
        src: str,
        dst: str,
        links: tuple[Link, ...],
        start_ns: int,
    ) -> None:
        self._domain = domain
        self.id = flow_id
        self.src = src
        self.dst = dst
        #: The directed links the flow occupies, in path order.
        self.links = links
        self.start_ns = start_ns

    def cap_bytes_per_ns(self) -> float:
        """The flow's current share ceiling: min(demand, CC limit)."""
        demand = self.demand_bytes_per_ns
        cc = self.cc_rate_bytes_per_ns
        return demand if demand <= cc else cc


class FluidDomain:
    """The fluid half of a dual-fidelity simulation.

    Construct it over a routed :class:`~repro.net.topology.Network`,
    add flows between fluid-tagged hosts, and :meth:`start` the control
    loop; the coupling to the packet domain is automatic from there.
    Arrivals and departures outside the coarse clock are fine — both
    settle served bytes up to now and re-solve shares immediately.

    State is columnar: one NumPy row per flow ever added (row = flow
    id) and one entry per tracked link.  Link column 0 is a padding
    slot no flow crosses; ``_hops`` pads shorter paths with it, so its
    zero marking probability and ignored load make padded hops inert.
    """

    def __init__(
        self, sim: Simulator, net: Network, config: FluidConfig | None = None
    ) -> None:
        self.sim = sim
        self.net = net
        self.config = config or FluidConfig()
        #: Every flow ever added (envelope checks cover departed ones).
        self.flows: list[FluidFlow] = []
        #: Links any fluid flow occupies, in first-touch order — the
        #: deterministic iteration axis for sampling and solving.  Link
        #: ``self._links[i]`` is column ``i + 1`` of the link arrays.
        self._links: list[Link] = []
        self._column_of: dict[Link, int] = {}
        # Per-flow columns, see the FluidFlow properties.
        self._demand: FloatArray = np.empty(0)
        self._active: npt.NDArray[np.bool_] = np.empty(0, dtype=bool)
        self._rate: FloatArray = np.empty(0)
        self._cc_gbps: FloatArray = np.empty(0)
        self._cc: FloatArray = np.empty(0)
        self._alpha: FloatArray = np.empty(0)
        self._served: FloatArray = np.empty(0)
        #: flow x hop matrix of link columns, padded with column 0.
        self._hops: npt.NDArray[np.intp] = np.zeros((0, 0), dtype=np.intp)
        #: Rows of the active flows, in arrival order.
        self._act: npt.NDArray[np.intp] = np.empty(0, dtype=np.intp)
        # Per-link columns: capacity, ``bytes_sent`` at the last sample
        # (delta = foreground), sampled foreground rate, pushed fluid load.
        self._cap: FloatArray = np.ones(1)
        self._sent: npt.NDArray[np.int64] = np.zeros(1, dtype=np.int64)
        self._fg: FloatArray = np.zeros(1)
        self._load: FloatArray = np.zeros(1)
        #: Start of the current foreground sample window.
        self._fg_sample_ns = sim.now
        #: Served bytes are integrated up to here.
        self._settled_ns = sim.now
        self.updates = 0
        self._update_cb = self._update  # stable identity for scheduling
        if sim.sanitizer is not None:
            sim.sanitizer.track_fluid(self)

    # -- membership ------------------------------------------------------
    def add_flow(self, src: str, dst: str, demand_gbps: float) -> FluidFlow:
        """Start a fluid flow ``src -> dst`` offering ``demand_gbps``."""
        if demand_gbps <= 0:
            raise ValueError(f"demand must be positive, got {demand_gbps}")
        flow_id = len(self.flows)
        links = tuple(self.net.path_links(src, dst, flow_id=flow_id))
        self._settle()
        columns = []
        for link in links:
            column = self._column_of.get(link)
            if column is None:
                column = self._column_of[link] = len(self._links) + 1
                self._links.append(link)
                self._cap = np.append(self._cap, link._bytes_per_ns)
                self._sent = np.append(self._sent, link.bytes_sent)
                self._fg = np.append(self._fg, 0.0)
                self._load = np.append(self._load, 0.0)
            columns.append(column)
        hops = np.zeros((flow_id + 1, max(self._hops.shape[1], len(columns))), np.intp)
        hops[:flow_id, : self._hops.shape[1]] = self._hops
        hops[flow_id, : len(columns)] = columns
        self._hops = hops
        line_rate_gbps = self.config.dcqcn.line_rate_gbps
        for name, value in (
            ("_demand", gbps_to_bytes_per_ns(demand_gbps)),
            ("_active", True),
            ("_rate", 0.0),
            ("_cc_gbps", line_rate_gbps),
            ("_cc", gbps_to_bytes_per_ns(line_rate_gbps)),
            ("_alpha", 0.0),
            ("_served", 0.0),
        ):
            setattr(self, name, np.append(getattr(self, name), value))
        flow = FluidFlow(self, flow_id, src, dst, links, self.sim.now)
        self.flows.append(flow)
        self._act = np.append(self._act, flow_id)
        self._resolve()
        return flow

    def remove_flow(self, flow: FluidFlow) -> None:
        """End a fluid flow; settles accrual and re-solves shares."""
        if not flow.active:
            return
        self._settle()
        self._active[flow.id] = False
        self._rate[flow.id] = 0.0
        self._act = np.flatnonzero(self._active)
        self._resolve()

    def total_bytes_served(self) -> float:
        total = 0.0  # left to right, the same float sum on every Python
        for served in self._served.tolist():
            total += served
        return total

    # -- control loop ----------------------------------------------------
    def start(self, until_ns: Nanoseconds) -> None:
        """Run the recurring control update until ``until_ns``."""
        self.sim.schedule_recurring_anon(
            self.config.update_interval_ns, self._update_cb, until_ns=until_ns
        )

    def _settle(self) -> None:
        """Integrate every active flow's granted rate up to now.

        Runs before anything changes a rate, so each piece of the
        integral is credited at the rate that actually held over it.
        """
        now = self.sim.now
        dt_ns = now - self._settled_ns
        if dt_ns > 0:
            act = self._act
            self._served[act] += self._rate[act] * dt_ns
            self._settled_ns = now

    def _update(self) -> None:
        """One control tick: settle, sample foreground, CC, re-solve."""
        self._settle()
        now = self.sim.now
        dt_ns = now - self._fg_sample_ns
        if dt_ns > 0:
            links = self._links
            sent = np.fromiter((link.bytes_sent for link in links), np.int64, len(links))
            self._fg[1:] = (sent - self._sent[1:]) / dt_ns
            self._sent[1:] = sent
            self._fg_sample_ns = now
        config = self.config
        p_link = _mark_probability((self._load + self._fg) / self._cap, config)
        act = self._act
        keep = np.ones(len(act))
        for hop in self._hops[act].T:
            keep *= 1.0 - p_link[hop]
        rate_gbps, alpha = fluid_rate_step(
            self._cc_gbps[act], self._alpha[act], 1.0 - keep, config.dcqcn
        )
        self._cc_gbps[act] = rate_gbps
        self._cc[act] = gbps_to_bytes_per_ns(rate_gbps)
        self._alpha[act] = alpha
        self.updates += 1
        self._resolve()

    # -- max-min fair share solver ---------------------------------------
    def _resolve(self) -> None:
        """Water-filling max-min shares, then push loads into the links.

        Classic progressive filling with per-flow caps: repeatedly find
        the tightest link (smallest remaining-capacity / unfrozen-flow
        ratio, first in link order on ties), freeze cap-limited flows
        at their cap while it is below the fair share, otherwise freeze
        the bottleneck link's flows at the share.  Terminates in <=
        flows rounds; every link ends at or under ``headroom *
        capacity - foreground``, which is what the sanitizer's
        conservation sweep re-checks from scratch.

        Each round is a handful of array operations.  Remaining
        capacity is reduced by every frozen grant in flow order and
        clamped at zero once per round: grants are >= 0, so this equals
        clamping after each subtraction.
        """
        act = self._act
        hops = self._hops[act]
        count = np.bincount(hops.ravel(), minlength=len(self._cap))
        count[0] = 0
        avail = self.config.headroom * self._cap - self._fg
        rem = np.where(avail > 0.0, avail, 0.0)
        cap = np.minimum(self._demand[act], self._cc[act])
        granted = np.zeros(len(act))
        pending = np.arange(len(act))
        eps = 1e-12
        while len(pending):
            members = np.flatnonzero(count > 0)
            if not len(members):
                break  # no pending flow crosses a tracked link
            shares = rem[members] / count[members]
            tightest = shares.argmin()
            share = shares[tightest]
            freeze = cap[pending] <= share + eps
            if not freeze.any():
                freeze = (hops[pending] == members[tightest]).any(axis=1)
            frozen = pending[freeze]
            granted[frozen] = np.minimum(cap[frozen], share)
            np.subtract.at(rem, hops[frozen], granted[frozen, None])
            np.subtract.at(count, hops[frozen], 1)
            rem = np.where(rem > 0.0, rem, 0.0)
            pending = pending[~freeze]
        self._rate[act] = granted
        loads = np.zeros(len(self._cap))
        np.add.at(loads, hops, granted[:, None])
        loads[0] = 0.0
        links = self._links
        for column in np.flatnonzero(loads != self._load).tolist():
            links[column - 1].set_fluid_load(loads[column].item())
        self._load = loads

    # -- invariants (sanitizer check group "fluids") ---------------------
    def fluid_violation(self) -> tuple[str, str] | None:
        """Conservation + envelope sweep; ``(invariant, detail)`` or None.

        Recomputes per-link load sums from scratch (instead of trusting
        the solver's cached sums) so a corrupted rate shows up no matter
        which side drifted.
        """
        act = self._act
        for row in act.tolist():
            flow = self.flows[row]
            granted = flow.rate_bytes_per_ns
            if granted < 0.0:
                return (
                    "fluid-conservation",
                    f"fluid flow {flow.id} ({flow.src}->{flow.dst}) rate went "
                    f"negative ({granted})",
                )
            cap = flow.cap_bytes_per_ns()
            if granted > cap + 1e-9:
                return (
                    "fluid-conservation",
                    f"fluid flow {flow.id} ({flow.src}->{flow.dst}) rate "
                    f"{granted:.6f} B/ns exceeds its demand/CC cap {cap:.6f}",
                )
        loads = np.zeros(len(self._load))
        np.add.at(loads, self._hops[act], self._rate[act, None])
        for link, load, pushed in zip(self._links, loads[1:].tolist(), self._load[1:].tolist()):
            if abs(load - pushed) > 1e-6:
                return (
                    "fluid-conservation",
                    f"link {link.name} carries pushed fluid load {pushed:.6f} "
                    f"B/ns but its member rates sum to {load:.6f}",
                )
            if load > link._bytes_per_ns + 1e-9:
                return (
                    "fluid-conservation",
                    f"link {link.name} fluid load {load:.6f} B/ns exceeds "
                    f"capacity {link._bytes_per_ns:.6f}",
                )
        now = self.sim.now
        sigma_ns = self.config.envelope_slack_intervals * self.config.update_interval_ns
        for flow in self.flows:
            elapsed_ns = now - flow.start_ns
            # (sigma, rho) arrival curve: served <= rho*t + rho*sigma_t,
            # +1 byte absorbing float accrual noise.
            bound = flow.demand_bytes_per_ns * (elapsed_ns + sigma_ns) + 1.0
            if flow.bytes_served > bound:
                return (
                    "fluid-envelope",
                    f"fluid flow {flow.id} ({flow.src}->{flow.dst}) served "
                    f"{flow.bytes_served:.0f} B, above its arrival-curve "
                    f"envelope {bound:.0f} B (rho="
                    f"{flow.demand_bytes_per_ns:.6f} B/ns over {elapsed_ns} ns)",
                )
        return None

    # -- scale accounting -------------------------------------------------
    def projected_packet_events(self, mtu_bytes: Bytes) -> int:
        """Events an all-packet run of the served fluid bytes would cost.

        Per MTU segment: one serialization-finish plus one delivery
        event per path link, plus one sender pump wake-up — the same
        2·hops+1 bookkeeping the packet domain pays per data packet
        (CNP/ACK traffic would only add to this, so the projection is
        conservative).  Used by the Clos-scale cell to report the
        dual-fidelity event-count reduction.
        """
        if mtu_bytes <= 0:
            raise ValueError("mtu must be positive")
        total = 0
        for flow, served in zip(self.flows, self._served.tolist()):
            packets = int(served // mtu_bytes)
            if served > packets * mtu_bytes:
                packets += 1
            total += packets * (2 * len(flow.links) + 1)
        return total
