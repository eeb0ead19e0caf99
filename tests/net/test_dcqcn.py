"""DCQCN reaction-point state machine tests.

Two layers:

* behavioural tests of the scalar :class:`DCQCNRateControl`;
* regression tests pinning the *lazy* alpha evaluation against an
  embedded eager reference (:class:`_EagerDCQCN`, the pre-lazy
  implementation with both timers as real scheduled events) — in
  particular the CNP-exactly-on-a-decay-boundary and the
  recovery-exactly-on-a-decay-boundary tie-breaks.
"""

import random

import pytest

from repro.net.dcqcn import DCQCNConfig, DCQCNRateControl
from repro.sim.engine import Simulator


def make(config=None):
    sim = Simulator()
    return sim, DCQCNRateControl(sim, config or DCQCNConfig())


def test_starts_at_line_rate():
    _, rp = make()
    assert rp.current_rate_gbps == 40.0
    assert rp.alpha == 1.0


def test_first_cnp_halves_rate():
    _, rp = make()
    rp.on_cnp()
    # alpha=1 => cut by alpha/2 = 50%.
    assert rp.current_rate_gbps == pytest.approx(20.0)
    assert rp.target_rate_gbps == pytest.approx(40.0)


def test_alpha_rises_on_cnp_and_decays_after():
    sim, rp = make()
    rp.on_cnp()
    assert rp.alpha == pytest.approx(1.0)  # (1-g)*1 + g with alpha0=1
    rp.on_cnp()
    a = rp.alpha
    sim.run(until=sim.now + 10 * 55_000)
    assert rp.alpha < a  # decay timers fired


def test_repeated_cnps_drive_rate_to_floor():
    _, rp = make()
    for _ in range(50):
        rp.on_cnp()
    assert rp.current_rate_gbps == pytest.approx(0.1)  # min rate clamp


def test_fast_recovery_approaches_target():
    sim, rp = make()
    rp.on_cnp()
    cut = rp.current_rate_gbps
    sim.run(until=2 * 55_000 + 10)
    # Two timer ticks of fast recovery: rate climbed toward target 40.
    assert rp.current_rate_gbps > cut
    assert rp.current_rate_gbps <= 40.0


def test_full_recovery_reaches_line_rate():
    sim, rp = make()
    rp.on_cnp()
    sim.run(until=sim.now + 400 * 55_000)
    assert rp.current_rate_gbps == pytest.approx(40.0)
    assert not rp._congested


def test_byte_counter_triggers_increase():
    sim, rp = make()
    rp.on_cnp()
    cut = rp.current_rate_gbps
    rp.on_bytes_sent(DCQCNConfig().byte_counter_bytes)
    assert rp.current_rate_gbps > cut


def test_byte_counter_idle_when_uncongested():
    _, rp = make()
    rp.on_bytes_sent(10**9)
    assert rp.current_rate_gbps == 40.0


def test_listeners_see_decreases_and_increases():
    sim, rp = make()
    changes = []
    rp.listeners.append(lambda c: changes.append(c))
    rp.on_cnp()
    sim.run(until=5 * 55_000)
    assert changes[0].decreased
    assert changes[0].rate_gbps == pytest.approx(20.0)
    assert any(not c.decreased for c in changes[1:])


def test_cnp_counter():
    _, rp = make()
    rp.on_cnp()
    rp.on_cnp()
    assert rp.cnp_count == 2


def test_config_validation():
    with pytest.raises(ValueError):
        DCQCNConfig(line_rate_gbps=0)
    with pytest.raises(ValueError):
        DCQCNConfig(min_rate_gbps=50, line_rate_gbps=40)
    with pytest.raises(ValueError):
        DCQCNConfig(g=0)
    with pytest.raises(ValueError):
        DCQCNConfig(alpha_timer_ns=0)
    with pytest.raises(ValueError):
        DCQCNConfig(fast_recovery_threshold=0)


def test_rate_never_exceeds_line_or_drops_below_min():
    sim, rp = make()
    for i in range(20):
        rp.on_cnp()
        sim.run(until=sim.now + 55_000)
        assert 0.1 <= rp.current_rate_gbps <= 40.0


# -- eager reference (pre-lazy-alpha implementation) --------------------------

class _EagerDCQCN:
    """The pre-lazy RP: both timers as real self-rescheduling events.

    This is the implementation the lazy ``DCQCNRateControl`` replaced.
    Alpha decay is an actual scheduled event firing every
    ``alpha_timer_ns``, so same-timestamp ordering against CNPs and
    increase ticks is decided by the engine's sequence numbers — which
    is precisely the semantics the lazy replay must reproduce.  Kept
    minimal (no listeners, no pacing mirror): the comparison axis is
    the (alpha, current, target) trajectory.
    """

    def __init__(self, sim, config=None):
        self.sim = sim
        self.config = config or DCQCNConfig()
        self.current_rate_gbps = self.config.line_rate_gbps
        self.target_rate_gbps = self.config.line_rate_gbps
        self.alpha = self.config.initial_alpha
        self._bytes_since_increase = 0
        self._timer_stage = 0
        self._byte_stage = 0
        self._congested = False
        self._alpha_timer_event = None
        self._increase_timer_event = None

    def _set_rate(self, rate_gbps):
        self.current_rate_gbps = min(
            self.config.line_rate_gbps, max(self.config.min_rate_gbps, rate_gbps)
        )

    def on_cnp(self):
        self.target_rate_gbps = self.current_rate_gbps
        self._set_rate(self.current_rate_gbps * (1.0 - self.alpha / 2.0))
        self.alpha = (1.0 - self.config.g) * self.alpha + self.config.g
        self._congested = True
        self._timer_stage = 0
        self._byte_stage = 0
        self._bytes_since_increase = 0
        for ev in (self._alpha_timer_event, self._increase_timer_event):
            if ev is not None:
                ev.cancel()
        self._alpha_timer_event = self.sim.schedule(
            self.config.alpha_timer_ns, self._alpha_decay
        )
        self._increase_timer_event = self.sim.schedule(
            self.config.increase_timer_ns, self._timer_tick
        )

    def _alpha_decay(self):
        # Applies unconditionally — an event already in the heap fires
        # even if an earlier same-instant tick just cleared congestion.
        self.alpha *= 1.0 - self.config.g
        if self._congested:
            self._alpha_timer_event = self.sim.schedule(
                self.config.alpha_timer_ns, self._alpha_decay
            )

    def _timer_tick(self):
        if not self._congested:
            return
        self._timer_stage += 1
        self._increase_rate()
        self._increase_timer_event = self.sim.schedule(
            self.config.increase_timer_ns, self._timer_tick
        )

    def on_bytes_sent(self, nbytes):
        if not self._congested:
            return
        self._bytes_since_increase += nbytes
        if self._bytes_since_increase >= self.config.byte_counter_bytes:
            self._bytes_since_increase = 0
            self._byte_stage += 1
            self._increase_rate()

    def _increase_rate(self):
        cfg = self.config
        if max(self._timer_stage, self._byte_stage) <= cfg.fast_recovery_threshold:
            pass
        elif min(self._timer_stage, self._byte_stage) <= cfg.fast_recovery_threshold:
            self.target_rate_gbps = min(
                cfg.line_rate_gbps, self.target_rate_gbps + cfg.rate_ai_gbps
            )
        else:
            self.target_rate_gbps = min(
                cfg.line_rate_gbps, self.target_rate_gbps + cfg.rate_hai_gbps
            )
        self._set_rate((self.target_rate_gbps + self.current_rate_gbps) / 2.0)
        if (
            self.current_rate_gbps >= cfg.line_rate_gbps
            and self.target_rate_gbps >= cfg.line_rate_gbps
        ):
            self._congested = False


def _drive(sim, rp, schedule, ordering, probes):
    """Schedule CNP/bytes events plus probes; return the observation log.

    ``ordering`` controls the sequence number a CNP event carries
    relative to any eager decay event due at the same instant:
    ``"cnp-first"`` pushes the CNP up-front (low seq — the CNP
    dispatches before a coincident decay), ``"decay-first"`` defers the
    push to one nanosecond before the deadline (high seq — the decay
    event, pushed a full alpha period earlier, dispatches first).  The
    realistic network ordering is decay-first: a CNP's arrival event is
    pushed one propagation delay before it fires, well under an alpha
    period.
    """
    log = []

    def cnp():
        rp.on_cnp()
        log.append(
            ("cnp", sim.now, rp.alpha, rp.current_rate_gbps, rp.target_rate_gbps)
        )

    def sent(nbytes):
        rp.on_bytes_sent(nbytes)
        log.append(
            ("sent", sim.now, rp.alpha, rp.current_rate_gbps, rp.target_rate_gbps)
        )

    def probe():
        log.append(
            ("probe", sim.now, rp.alpha, rp.current_rate_gbps, rp.target_rate_gbps)
        )

    for kind, t, *rest in schedule:
        if ordering == "cnp-first":
            if kind == "cnp":
                sim.schedule_at(t, cnp)
            else:
                sim.schedule_at(t, sent, rest[0])
        elif kind == "cnp":
            sim.schedule_at(max(0, t - 1), lambda t=t: sim.schedule_at(t, cnp))
        else:
            # Byte counters fire from the NIC pump, whose wake-up is
            # likewise pushed well under one alpha period ahead.
            sim.schedule_at(
                max(0, t - 1),
                lambda t=t, nb=rest[0]: sim.schedule_at(t, sent, nb),
            )
    for t in probes:
        # Probes read lazily-evaluated state, so their intra-instant
        # position is irrelevant; push them late for symmetry anyway.
        sim.schedule_at(max(0, t - 1), lambda t=t: sim.schedule_at(t, probe))
    sim.run()
    return log


def _run_lazy(schedule, ordering, probes, config):
    sim = Simulator()
    return _drive(sim, DCQCNRateControl(sim, config), schedule, ordering, probes)


def _run_eager(schedule, ordering, probes, config):
    sim = Simulator()
    return _drive(sim, _EagerDCQCN(sim, config), schedule, ordering, probes)


P = DCQCNConfig().alpha_timer_ns  # 55_000


@pytest.mark.parametrize("k", [1, 2, 3, 5, 6])
def test_cnp_exactly_on_decay_boundary_applies_k_decays(k):
    """A CNP at ``anchor + k*alpha_timer_ns`` sees k decays, not k-1.

    The eager implementation fired the decay timer before processing a
    same-timestamp CNP (the decay event carries the lower sequence
    number); the lazy replay must count the boundary coinciding with
    the CNP as already fired.
    """
    cfg = DCQCNConfig()
    sim, rp = make(cfg)
    sim.schedule_at(10, rp.on_cnp)
    sim.run(until=10)
    alpha_after_first = rp._alpha_value
    # Read alpha exactly on the k-th boundary: k decays materialised.
    sim.run(until=10 + k * P)
    expected = alpha_after_first
    for _ in range(k):
        expected *= 1.0 - cfg.g
    assert rp.alpha == expected
    under_decayed = alpha_after_first
    for _ in range(k - 1):
        under_decayed *= 1.0 - cfg.g
    assert rp.alpha != under_decayed  # k-1 decays would be the old bug
    # The second CNP's rate cut uses the k-times-decayed alpha.
    rate_before = rp.current_rate_gbps
    rp.on_cnp()
    assert rp.current_rate_gbps == pytest.approx(
        max(cfg.min_rate_gbps, rate_before * (1.0 - expected / 2.0))
    )


def _boundary_schedules():
    """Schedules that land CNPs and byte counters on decay boundaries."""
    cases = []
    for k in (1, 2, 3, 6):
        cases.append(
            (
                [("cnp", 10), ("cnp", 10 + k * P)],
                [10 + k * P + 1, 10 + (k + 3) * P + 7, 10 + 600 * P],
            )
        )
    cases.append(
        (
            [("cnp", 10), ("cnp", 10 + 3 * P - 1), ("cnp", 10 + 5 * P + 1)],
            [10 + 7 * P, 10 + 600 * P],
        )
    )
    cases.append(
        (
            [
                ("cnp", 10),
                ("sent", 10 + P // 2, 11 * 1024 * 1024),
                ("cnp", 10 + 2 * P),
                ("sent", 10 + 3 * P, 11 * 1024 * 1024),
            ],
            [10 + 4 * P, 10 + 600 * P],
        )
    )
    return cases


@pytest.mark.parametrize("schedule,probes", _boundary_schedules())
def test_lazy_matches_eager_reference_decay_first(schedule, probes):
    """Lazy trajectory == eager with realistic (decay-first) ordering."""
    cfg = DCQCNConfig()
    assert _run_lazy(schedule, "decay-first", probes, cfg) == _run_eager(
        schedule, "decay-first", probes, cfg
    )


@pytest.mark.parametrize("k", [1, 2, 4])
def test_lazy_alpha_tie_is_push_order_independent(k):
    """The alpha tie-break does not depend on how the CNP was pushed.

    Config chosen so no increase tick coincides with a decay boundary
    (13_000 does not divide k * 55_000 for small k): the only same-
    instant race is CNP-vs-decay.  The lazy RP has no decay events to
    race against, so both push orderings yield one trajectory — the
    decay-first one (the realistic ordering: a decay event is pushed a
    full alpha period before it fires, a CNP arrival one propagation
    delay).  The eager reference under cnp-first ordering diverges by
    exactly the boundary decay, proving the tie is real.
    """
    cfg = DCQCNConfig(alpha_timer_ns=55_000, increase_timer_ns=13_000)
    schedule = [("cnp", 10), ("cnp", 10 + k * 55_000)]
    probes = [10 + k * 55_000 + 3, 10 + (k + 300) * 55_000]
    decay_first = _run_lazy(schedule, "decay-first", probes, cfg)
    assert _run_lazy(schedule, "cnp-first", probes, cfg) == decay_first
    assert _run_eager(schedule, "decay-first", probes, cfg) == decay_first
    assert _run_eager(schedule, "cnp-first", probes, cfg) != decay_first


def test_eager_orderings_genuinely_differ_on_boundaries():
    """The tie the lazy RP pins is real: eager orderings disagree.

    With a CNP exactly on a decay boundary, eager cnp-first cuts the
    rate from an alpha one decay behind eager decay-first — so the test
    above is pinning an actual semantic choice, not a vacuous equality.
    """
    cfg = DCQCNConfig()
    schedule = [("cnp", 10), ("cnp", 10 + 2 * P)]
    probes = [10 + 2 * P + 3]
    assert _run_eager(schedule, "cnp-first", probes, cfg) != _run_eager(
        schedule, "decay-first", probes, cfg
    )


@pytest.mark.parametrize(
    "alpha_timer_ns,increase_timer_ns",
    [
        (10_000, 13_000),  # alpha < increase: the clearing tick wins ties
        (55_000, 55_000),  # equal periods: the decay event wins ties
        (60_000, 13_000),  # alpha > increase: the decay event wins ties
    ],
)
def test_decay_cap_after_recovery_matches_eager(alpha_timer_ns, increase_timer_ns):
    """Recovery landing exactly on a decay boundary freezes the right cap.

    Regression for the clear-on-boundary off-by-one: the old cap
    formula unconditionally counted a boundary coinciding with the
    clearing instant as fired, but when ``alpha_timer < increase_timer``
    the clearing increase tick carries the *lower* sequence number and
    the eager reference applies one decay fewer.  Seeded differential
    fuzz against the eager reference under decay-first CNP ordering;
    the (10_000, 13_000) case reproduced the bug deterministically.
    """
    cfg = DCQCNConfig(
        alpha_timer_ns=alpha_timer_ns, increase_timer_ns=increase_timer_ns
    )
    rng = random.Random(hash((alpha_timer_ns, increase_timer_ns)) & 0xFFFF)
    period = alpha_timer_ns
    for _ in range(25):
        t = 10
        schedule = [("cnp", t)]
        for _ in range(rng.randint(1, 4)):
            # Mix boundary-exact and off-boundary CNPs, far enough apart
            # for full recovery (and its decay cap) to engage sometimes.
            gap_periods = rng.choice([1, 2, 3, 7, 60, 90, 150])
            t += gap_periods * period + rng.choice([0, 0, 0, 1, -1, 17])
            schedule.append(("cnp", t))
            if rng.random() < 0.3:
                schedule.append(("sent", t + rng.randint(1, period), 11 * 2**20))
        probes = [t + k * period for k in (1, 2, 5, 100, 300)]
        probes += [t + k * period + 7 for k in (3, 50, 200)]
        lazy = _run_lazy(schedule, "decay-first", probes, cfg)
        eager = _run_eager(schedule, "decay-first", probes, cfg)
        assert lazy == eager, f"schedule={schedule}"


def test_same_instant_cnps_on_one_nic_tick_once_per_flow():
    """Each flow on a NIC owns its own increase timer event.

    Two flows of one NIC that take a CNP at the same instant get two
    ``_timer_tick`` dispatches one increase period later, one per flow.
    """
    from repro.net.topology import build_star

    sim = Simulator(trace=True)
    net = build_star(sim, ["a", "b", "c"])
    nic = net.hosts["a"]
    flows = [nic.flow_to("b"), nic.flow_to("c")]
    changes = {flow.id: [] for flow in flows}
    for flow in flows:
        log = changes[flow.id]
        flow.rate_control.listeners.append(
            lambda c, log=log: log.append((c.time_ns, c.decreased))
        )
        sim.schedule_at(1_000, flow.rate_control.on_cnp)
    due = 1_000 + nic.config.dcqcn.increase_timer_ns
    sim.run(until=due)
    ticks = [t for t, name in sim.dispatch_log if name == "DCQCNRateControl._timer_tick"]
    assert ticks == [due, due]
    # Each flow was cut by its CNP and raised by its own tick.
    assert changes == {flow.id: [(1_000, True), (due, False)] for flow in flows}


def test_timer_fires_one_noop_tick_after_full_recovery():
    """The tick that restores line rate still re-arms the timer.

    The next tick finds the flow uncongested and retires the timer
    without a rate change: one extra dispatch per recovery episode.  On
    ``fig7_pair`` these are the only events the removed NumPy rate table
    did not dispatch, since it dropped the deadline at the recovering
    tick.
    """
    sim = Simulator(trace=True)
    rp = DCQCNRateControl(sim)
    raised = []
    rp.listeners.append(lambda c: c.decreased or raised.append(c.time_ns))
    sim.schedule_at(0, rp.on_cnp)
    sim.run()
    ticks = [t for t, name in sim.dispatch_log if name == "DCQCNRateControl._timer_tick"]
    assert rp.current_rate_gbps == rp.config.line_rate_gbps
    assert ticks[:-1] == raised  # every tick but the last raised the rate
    assert ticks[-1] == ticks[-2] + rp.config.increase_timer_ns
