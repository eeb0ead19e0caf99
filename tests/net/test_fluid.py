"""Dual-fidelity engine tests: fluid shares, CC, coupling, invariants."""

import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.net.dcqcn import DCQCNConfig, fluid_rate_step
from repro.net.fluid import FluidConfig, FluidDomain, _mark_probability
from repro.net.link import Link
from repro.net.topology import build_clos, build_dumbbell
from repro.sim.engine import Simulator
from repro.sim.units import MS, US, gbps_to_bytes_per_ns


def small_clos(sim, *, fluid_hosts_per_tor=2):
    return build_clos(
        sim,
        n_pods=2,
        leaves_per_pod=2,
        tors_per_pod=2,
        hosts_per_tor=4,
        fluid_hosts_per_tor=fluid_hosts_per_tor,
    )


def dumbbell(sim, n=4, rate_gbps=40.0):
    return build_dumbbell(
        sim,
        [f"l{i}" for i in range(n)],
        [f"r{i}" for i in range(n)],
        rate_gbps=rate_gbps,
    )


# -- mean-field DCQCN ------------------------------------------------------

def test_fluid_rate_step_unmarked_increases_toward_line_rate():
    cfg = DCQCNConfig()
    rate, alpha = fluid_rate_step(20.0, 0.5, 0.0, cfg)
    assert rate == pytest.approx(20.0 + cfg.rate_ai_gbps)
    assert alpha == pytest.approx(0.5 * (1 - cfg.g))  # EWMA decays toward 0


def test_fluid_rate_step_full_marking_cuts_rate():
    cfg = DCQCNConfig()
    rate, alpha = fluid_rate_step(40.0, 1.0, 1.0, cfg)
    assert rate == pytest.approx(40.0 * 0.5)  # cut by alpha/2 at p=1
    assert alpha == pytest.approx(1.0)


def test_fluid_rate_step_clamps_to_bounds():
    cfg = DCQCNConfig()
    rate, _ = fluid_rate_step(cfg.line_rate_gbps, 0.0, 0.0, cfg)
    assert rate == cfg.line_rate_gbps  # never above line rate
    rate, _ = fluid_rate_step(cfg.min_rate_gbps, 1.0, 1.0, cfg)
    assert rate == cfg.min_rate_gbps  # never below the floor
    with pytest.raises(ValueError):
        fluid_rate_step(10.0, 0.5, 1.5, cfg)


@settings(max_examples=50, deadline=None)
@given(
    st.lists(
        st.tuples(
            st.floats(min_value=0.1, max_value=40.0),
            st.floats(min_value=0.0, max_value=1.0),
            st.floats(min_value=0.0, max_value=1.0),
        ),
        min_size=1,
        max_size=12,
    )
)
def test_fluid_rate_step_arrays_match_scalar_calls(triples):
    cfg = DCQCNConfig()
    rates, alphas, marks = (np.array(column) for column in zip(*triples))
    new_rates, new_alphas = fluid_rate_step(rates, alphas, marks, cfg)
    for i, (rate, alpha, mark) in enumerate(triples):
        scalar_rate, scalar_alpha = fluid_rate_step(rate, alpha, mark, cfg)
        assert new_rates[i] == scalar_rate
        assert new_alphas[i] == scalar_alpha


@pytest.mark.parametrize("bad", [float("nan"), 1.5, -0.25])
def test_fluid_rate_step_rejects_one_bad_array_element(bad):
    marks = np.array([0.0, 0.5, bad, 1.0])
    with pytest.raises(ValueError):
        fluid_rate_step(np.full(4, 20.0), np.zeros(4), marks, DCQCNConfig())
    with pytest.raises(ValueError):
        fluid_rate_step(20.0, 0.0, bad, DCQCNConfig())


def test_mark_probability_ramp():
    cfg = FluidConfig()
    assert _mark_probability(0.0, cfg) == 0.0
    assert _mark_probability(cfg.ecn_kmin_util, cfg) == 0.0
    mid = (cfg.ecn_kmin_util + cfg.ecn_kmax_util) / 2
    assert _mark_probability(mid, cfg) == pytest.approx(cfg.ecn_pmax / 2)
    assert _mark_probability(cfg.ecn_kmax_util, cfg) == 1.0
    assert _mark_probability(1.5, cfg) == 1.0


# -- share solver ----------------------------------------------------------

def test_single_flow_gets_demand_when_uncongested():
    sim = Simulator()
    net = small_clos(sim)
    dom = FluidDomain(sim, net)
    hosts = net.fluid_hosts()
    flow = dom.add_flow(hosts[0], hosts[-1], demand_gbps=5.0)
    assert flow.rate_bytes_per_ns == pytest.approx(gbps_to_bytes_per_ns(5.0))
    assert dom.fluid_violation() is None


def test_shares_respect_headroom_capacity():
    """Many high-demand flows through one bottleneck split its budget."""
    sim = Simulator()
    net = dumbbell(sim, n=4)
    net.tag_fidelity("l0", "fluid")
    dom = FluidDomain(sim, net)
    # 4 flows l_i -> r_i all cross the single inter-switch trunk.
    for i in range(4):
        dom.add_flow(f"l{i}", f"r{i}", demand_gbps=40.0)
    trunk_capacity = gbps_to_bytes_per_ns(40.0)
    total = sum(f.rate_bytes_per_ns for f in dom.flows)
    assert total <= dom.config.headroom * trunk_capacity + 1e-9
    # Max-min with equal demands = equal shares.
    rates = [f.rate_bytes_per_ns for f in dom.flows]
    assert max(rates) == pytest.approx(min(rates))
    assert dom.fluid_violation() is None


def test_cap_limited_flow_frees_share_for_others():
    sim = Simulator()
    net = dumbbell(sim, n=2)
    dom = FluidDomain(sim, net)
    small = dom.add_flow("l0", "r0", demand_gbps=2.0)
    big = dom.add_flow("l1", "r1", demand_gbps=40.0)
    assert small.rate_bytes_per_ns == pytest.approx(gbps_to_bytes_per_ns(2.0))
    # The big flow takes the rest of the trunk budget.
    budget = dom.config.headroom * gbps_to_bytes_per_ns(40.0)
    assert big.rate_bytes_per_ns == pytest.approx(
        budget - small.rate_bytes_per_ns
    )


def test_departure_restores_shares_and_settles_accrual():
    sim = Simulator()
    net = dumbbell(sim, n=2)
    dom = FluidDomain(sim, net)
    a = dom.add_flow("l0", "r0", demand_gbps=40.0)
    b = dom.add_flow("l1", "r1", demand_gbps=40.0)
    half = a.rate_bytes_per_ns
    sim.schedule_at_anon(50 * US, dom.remove_flow, a)
    dom.start(until_ns=100 * US)
    sim.run(until=100 * US)
    assert not a.active and a.rate_bytes_per_ns == 0.0
    assert a.bytes_served == pytest.approx(half * 50 * US, rel=0.05)
    # Survivor doubled once the peer left.
    assert b.rate_bytes_per_ns == pytest.approx(2 * half)
    assert dom.fluid_violation() is None


def test_mid_interval_arrival_settles_served_bytes_exactly():
    """``a`` runs alone at 30 Gbps until ``b`` joins at 50 µs; the tick
    at 100 µs must credit each flow only the rate it held per piece."""
    sim = Simulator()
    net = dumbbell(sim, n=2)
    dom = FluidDomain(sim, net)
    a = dom.add_flow("l0", "r0", demand_gbps=30.0)
    joined = []
    sim.schedule_at_anon(
        50 * US, lambda: joined.append(dom.add_flow("l1", "r1", demand_gbps=30.0))
    )
    dom.start(until_ns=100 * US)
    sim.run(until=100 * US)
    (b,) = joined
    assert dom.updates == 1
    # 3.75 B/ns alone for 50 µs, then half of 0.95 * 5 B/ns each.
    assert a.bytes_served == 306_250.0
    assert b.bytes_served == 118_750.0


# -- coupling to the packet domain ----------------------------------------

class _Sink:
    name = "sink"

    def receive(self, packet, in_port):
        pass


def test_fluid_load_inflates_packet_serialization():
    """A loaded link serialises foreground packets at the residual rate."""
    sim = Simulator()
    link = Link(sim, rate_gbps=40.0, delay_ns=0, dst=_Sink(), dst_port=0)
    base = link.serialization_ns(4096)
    link.set_fluid_load(0.5 * link._bytes_per_ns)
    assert link.serialization_ns(4096) == 2 * base
    link.set_fluid_load(0.0)
    assert link.serialization_ns(4096) == base
    assert link._eff_bytes_per_ns == link._bytes_per_ns


def test_fluid_load_floor_keeps_residual_bandwidth():
    sim = Simulator()
    link = Link(sim, rate_gbps=40.0, delay_ns=0, dst=_Sink(), dst_port=0)
    link.set_fluid_load(10 * link._bytes_per_ns)  # absurd oversubscription
    assert link._eff_bytes_per_ns == pytest.approx(0.01 * link._bytes_per_ns)


def test_foreground_rate_feeds_back_into_shares():
    """Packet-domain bytes shrink what the solver hands fluid flows."""
    sim = Simulator()
    net = dumbbell(sim, n=2)
    dom = FluidDomain(sim, net)
    flow = dom.add_flow("l0", "r0", demand_gbps=40.0)
    unloaded = flow.rate_bytes_per_ns
    # Fake a hot foreground: bump bytes_sent on the flow's first link
    # between two control ticks, as real packet traffic would.
    link = flow.links[0]
    interval = dom.config.update_interval_ns
    fg_rate = 0.5 * link._bytes_per_ns

    def inject() -> None:
        link.bytes_sent += int(fg_rate * interval)

    sim.schedule_recurring_anon(interval // 2, inject, until_ns=5 * interval)
    dom.start(until_ns=5 * interval)
    sim.run(until=5 * interval)
    assert flow.rate_bytes_per_ns <= unloaded - 0.9 * fg_rate + 1e-9
    assert dom.fluid_violation() is None


def test_sustained_congestion_reduces_cc_rate():
    """Utilization-driven marking pulls the mean-field DCQCN rate down."""
    sim = Simulator()
    net = dumbbell(sim, n=4)
    dom = FluidDomain(sim, net)
    for i in range(4):
        dom.add_flow(f"l{i}", f"r{i}", demand_gbps=40.0)
    dom.start(until_ns=2 * MS)
    sim.run(until=2 * MS)
    line = dom.config.dcqcn.line_rate_gbps
    assert all(f.cc_rate_gbps < line for f in dom.flows)
    assert all(f.alpha > 0.0 for f in dom.flows)
    assert dom.fluid_violation() is None


# -- invariants ------------------------------------------------------------

def test_envelope_violation_detected():
    sim = Simulator()
    net = small_clos(sim)
    dom = FluidDomain(sim, net)
    hosts = net.fluid_hosts()
    flow = dom.add_flow(hosts[0], hosts[-1], demand_gbps=5.0)
    flow.bytes_served = 1e15  # corrupt: far beyond rho*t + sigma
    failure = dom.fluid_violation()
    assert failure is not None and failure[0] == "fluid-envelope"


def test_conservation_violation_detected():
    sim = Simulator()
    net = small_clos(sim)
    dom = FluidDomain(sim, net)
    hosts = net.fluid_hosts()
    flow = dom.add_flow(hosts[0], hosts[-1], demand_gbps=5.0)
    flow.rate_bytes_per_ns *= 2  # corrupt: rate above cap, sums drift
    failure = dom.fluid_violation()
    assert failure is not None and failure[0] == "fluid-conservation"


def test_sanitizing_simulator_sweeps_fluid_domain():
    from repro.analysis.sanitizer import SanitizerError

    sim = Simulator(sanitize=True)
    net = small_clos(sim)
    dom = FluidDomain(sim, net)
    hosts = net.fluid_hosts()
    flow = dom.add_flow(hosts[0], hosts[-1], demand_gbps=5.0)
    dom.start(until_ns=1 * MS)
    sim.schedule_at_anon(
        500 * US, lambda: setattr(flow, "bytes_served", 1e15)
    )
    with pytest.raises(SanitizerError) as exc:
        sim.run(until=1 * MS)
    assert exc.value.invariant == "fluid-envelope"


def test_projected_packet_events_counts_path_hops():
    sim = Simulator()
    net = small_clos(sim)
    dom = FluidDomain(sim, net)
    hosts = net.fluid_hosts()
    flow = dom.add_flow(hosts[0], hosts[-1], demand_gbps=5.0)
    flow.bytes_served = 10 * 4096.0
    per_packet = 2 * len(flow.links) + 1
    assert dom.projected_packet_events(4096) == 10 * per_packet


def test_add_flow_validation():
    sim = Simulator()
    net = small_clos(sim)
    dom = FluidDomain(sim, net)
    hosts = net.fluid_hosts()
    with pytest.raises(ValueError):
        dom.add_flow(hosts[0], hosts[1], demand_gbps=0.0)
    with pytest.raises(KeyError):
        dom.add_flow("nope", hosts[1], demand_gbps=1.0)


def test_fluid_config_validation():
    with pytest.raises(ValueError):
        FluidConfig(update_interval_ns=0)
    with pytest.raises(ValueError):
        FluidConfig(headroom=1.5)
    with pytest.raises(ValueError):
        FluidConfig(ecn_kmin_util=0.9, ecn_kmax_util=0.5)
    with pytest.raises(ValueError):
        FluidConfig(envelope_slack_intervals=0)


# -- property: conservation under arbitrary arrival/departure orders -------

@settings(max_examples=40, deadline=None)
@given(
    steps=st.lists(
        st.tuples(
            st.sampled_from(["add", "remove"]),
            st.integers(min_value=0, max_value=7),
            st.floats(min_value=0.5, max_value=60.0),
        ),
        min_size=1,
        max_size=24,
    )
)
def test_shares_conserve_capacity_across_arrival_departure_sequences(steps):
    """After any add/remove sequence: rates non-negative, capped by the
    flow's demand/CC limit, and per-link sums within headroom*capacity —
    checked from scratch by ``fluid_violation`` after every step."""
    sim = Simulator()
    net = dumbbell(sim, n=4)
    dom = FluidDomain(sim, net)
    live = []
    for op, idx, demand in steps:
        if op == "add":
            live.append(
                dom.add_flow(f"l{idx % 4}", f"r{(idx // 2) % 4}", demand)
            )
        elif live:
            dom.remove_flow(live.pop(idx % len(live)))
        assert dom.fluid_violation() is None
        for flow in dom.flows:
            assert flow.rate_bytes_per_ns >= 0.0
            assert flow.rate_bytes_per_ns <= flow.cap_bytes_per_ns() + 1e-9


# -- exactness: the array solver against the dict-based scalar oracle ------

def _oracle_mark(utilization, config):
    if utilization <= config.ecn_kmin_util:
        return 0.0
    if utilization >= config.ecn_kmax_util:
        return 1.0
    span = config.ecn_kmax_util - config.ecn_kmin_util
    return config.ecn_pmax * (utilization - config.ecn_kmin_util) / span


def _oracle_rate_step(rate_gbps, alpha, mark_prob, config):
    g = config.g
    new_alpha = (1.0 - g) * alpha + g * mark_prob
    new_rate = rate_gbps * (1.0 - mark_prob * new_alpha / 2.0)
    new_rate += config.rate_ai_gbps * (1.0 - mark_prob)
    new_rate = min(config.line_rate_gbps, max(config.min_rate_gbps, new_rate))
    return new_rate, new_alpha


class _OracleFlow:
    def __init__(self, flow_id, links, demand, line_rate_gbps):
        self.id = flow_id
        self.links = links
        self.demand = demand
        self.cc_gbps = line_rate_gbps
        self.cc = gbps_to_bytes_per_ns(line_rate_gbps)
        self.alpha = 0.0
        self.rate = 0.0

    def cap(self):
        return self.demand if self.demand <= self.cc else self.cc


class _DictFluid:
    """The scalar, dict-based share solver and CC loop the array
    implementation replaced, kept as its bit-for-bit reference."""

    def __init__(self, config, now):
        self.config = config
        self.flows = {}
        self.active = []
        self.links = []
        self.prev = {}
        self.fg = {}
        self.load = {}
        self.last = now

    def add(self, flow_id, links, demand):
        flow = _OracleFlow(flow_id, links, demand, self.config.dcqcn.line_rate_gbps)
        for link in links:
            if link not in self.prev:
                self.links.append(link)
                self.prev[link] = link.bytes_sent
                self.fg[link] = 0.0
                self.load[link] = 0.0
        self.flows[flow_id] = flow
        self.active.append(flow)
        self.resolve()

    def remove(self, flow_id):
        flow = self.flows[flow_id]
        flow.rate = 0.0
        self.active.remove(flow)
        self.resolve()

    def update(self, now):
        dt_ns = now - self.last
        if dt_ns > 0:
            for link in self.links:
                sent = link.bytes_sent
                self.fg[link] = (sent - self.prev[link]) / dt_ns
                self.prev[link] = sent
            self.last = now
        p_link = {}
        for link in self.links:
            utilization = (self.load[link] + self.fg[link]) / link._bytes_per_ns
            p_link[link] = _oracle_mark(utilization, self.config)
        for flow in self.active:
            keep = 1.0
            for link in flow.links:
                keep *= 1.0 - p_link[link]
            flow.cc_gbps, flow.alpha = _oracle_rate_step(
                flow.cc_gbps, flow.alpha, 1.0 - keep, self.config.dcqcn
            )
            flow.cc = gbps_to_bytes_per_ns(flow.cc_gbps)
        self.resolve()

    def resolve(self):
        links = self.links
        rem = {link: 0.0 for link in links}
        count = {link: 0 for link in links}
        for flow in self.active:
            for link in flow.links:
                count[link] += 1
        for link in links:
            if count[link]:
                avail = self.config.headroom * link._bytes_per_ns - self.fg[link]
                rem[link] = avail if avail > 0.0 else 0.0
        rate = {}
        pending = list(self.active)
        eps = 1e-12
        while pending:
            share = -1.0
            bottleneck = None
            for link in links:
                members = count[link]
                if members > 0:
                    link_share = rem[link] / members
                    if bottleneck is None or link_share < share:
                        share = link_share
                        bottleneck = link
            if bottleneck is None:
                break
            limited = [flow for flow in pending if flow.cap() <= share + eps]
            if limited:
                to_freeze = [(flow, min(flow.cap(), share)) for flow in limited]
            else:
                to_freeze = [(flow, share) for flow in pending if bottleneck in flow.links]
            frozen_ids = set()
            for flow, granted in to_freeze:
                rate[flow.id] = granted
                frozen_ids.add(flow.id)
                for link in flow.links:
                    residual = rem[link] - granted
                    rem[link] = residual if residual > 0.0 else 0.0
                    count[link] -= 1
            pending = [flow for flow in pending if flow.id not in frozen_ids]
        loads = {link: 0.0 for link in links}
        for flow in self.active:
            flow.rate = rate.get(flow.id, 0.0)
            for link in flow.links:
                loads[link] += flow.rate
        self.load = loads


def _assert_matches_oracle(dom, oracle):
    for flow in dom.flows:
        ref = oracle.flows[flow.id]
        assert flow.rate_bytes_per_ns == ref.rate
        assert flow.cc_rate_gbps == ref.cc_gbps
        assert flow.cc_rate_bytes_per_ns == ref.cc
        assert flow.alpha == ref.alpha
    assert dom._links == oracle.links
    for link in oracle.links:
        assert link.fluid_load_bytes_per_ns == oracle.load[link]


def _drive_against_oracle(topology, steps):
    """Apply ``steps`` to a domain and to the oracle; compare after each."""
    sim = Simulator()
    if topology == "clos":
        net = small_clos(sim)
        hosts = net.fluid_hosts()
    else:
        net = dumbbell(sim, n=4)
        hosts = None
    dom = FluidDomain(sim, net)
    oracle = _DictFluid(dom.config, sim.now)
    live = []
    for step in steps:
        op = step[0]
        if op == "add":
            _, idx, demand, cc_gbps = step
            if hosts is None:
                src, dst = f"l{idx % 4}", f"r{(idx // 4) % 4}"
            else:
                src = hosts[idx % len(hosts)]
                dst = hosts[(idx // len(hosts) + idx + 1) % len(hosts)]
            flow = dom.add_flow(src, dst, demand)
            oracle.add(flow.id, flow.links, gbps_to_bytes_per_ns(demand))
            # A CC rate the next solve or tick starts from, on both sides.
            ref = oracle.flows[flow.id]
            flow.cc_rate_gbps = ref.cc_gbps = cc_gbps
            flow.cc_rate_bytes_per_ns = ref.cc = gbps_to_bytes_per_ns(cc_gbps)
            live.append(flow)
        elif op == "remove" and live:
            flow = live.pop(step[1] % len(live))
            dom.remove_flow(flow)
            oracle.remove(flow.id)
        elif op == "foreground" and oracle.links:
            oracle.links[step[1] % len(oracle.links)].bytes_sent += step[2]
        elif op == "tick":
            sim.run(until=sim.now + step[1])
            dom._update()
            oracle.update(sim.now)
        _assert_matches_oracle(dom, oracle)


_ADD = st.tuples(
    st.just("add"),
    st.integers(min_value=0, max_value=63),
    st.floats(min_value=0.5, max_value=60.0),
    st.floats(min_value=0.1, max_value=40.0),
)
_REMOVE = st.tuples(st.just("remove"), st.integers(min_value=0, max_value=63))
_FOREGROUND = st.tuples(
    st.just("foreground"),
    st.integers(min_value=0, max_value=63),
    st.integers(min_value=0, max_value=1_000_000),
)
_TICK = st.tuples(st.just("tick"), st.integers(min_value=0, max_value=200_000))


@settings(max_examples=60, deadline=None)
@given(
    topology=st.sampled_from(["clos", "dumbbell"]),
    steps=st.lists(st.one_of(_ADD, _REMOVE, _FOREGROUND, _TICK), min_size=1, max_size=40),
)
def test_array_solver_matches_scalar_oracle_bit_for_bit(topology, steps):
    """Random demands, CC rates, foreground load and arrivals/departures:
    every granted rate, CC rate, alpha and pushed load equals the
    dict-based reference exactly."""
    _drive_against_oracle(topology, steps)


@pytest.mark.parametrize("topology", ["clos", "dumbbell"])
def test_array_solver_matches_scalar_oracle_on_long_busy_runs(topology):
    """Long seeded runs with many concurrent flows and hot foreground
    links: they reach multi-flow freezes and multi-hop marking, where
    any reordering of the float operations would show."""
    rng = random.Random(topology)
    steps = []
    for _ in range(24):
        steps.append(("add", rng.randrange(64), rng.uniform(0.5, 60.0), rng.uniform(0.1, 40.0)))
    for _ in range(200):
        kind = rng.random()
        if kind < 0.15:
            steps.append(
                ("add", rng.randrange(64), rng.uniform(0.5, 60.0), rng.uniform(0.1, 40.0))
            )
        elif kind < 0.3:
            steps.append(("remove", rng.randrange(64)))
        elif kind < 0.6:
            steps.append(("foreground", rng.randrange(64), rng.randrange(1_000_000)))
        else:
            steps.append(("tick", rng.randrange(20_000, 200_000)))
    _drive_against_oracle(topology, steps)
