"""FaultInjector wiring: resolution, arming, and deterministic loss."""

from __future__ import annotations

import pytest

from repro.faults import (
    ChannelBrownout,
    DieFailure,
    FaultInjector,
    FaultPlan,
    LinkFlap,
    LossBurst,
    SlowDie,
)
from repro.net.nic import NICConfig
from repro.net.reliability import ReliabilityConfig
from repro.net.topology import build_star
from repro.sim.engine import Simulator
from repro.sim.units import KIB, MS, US
from repro.ssd.flash import FlashBackend
from tests.conftest import FAST_SSD


def build_cell(plan: FaultPlan | None = None, *, reliability: bool = True):
    """Two-host star; ``a`` streams messages to ``b``; returns handles."""
    sim = Simulator()
    cfg = (
        NICConfig(reliability=ReliabilityConfig(seed=1, rto_ns=100_000))
        if reliability
        else None
    )
    net = build_star(sim, ["a", "b"], rate_gbps=40.0, delay_ns=US, nic_config=cfg)
    delivered: list[int] = []
    net.hosts["b"].endpoint = lambda payload, src, nbytes: delivered.append(nbytes)
    injector = None
    if plan is not None:
        injector = FaultInjector(sim, plan).attach_network(net)
        injector.arm()
    for _ in range(20):
        assert net.hosts["a"].send_message("b", 32 * KIB)
    return sim, net, delivered, injector


class TestResolution:
    def test_unknown_link_fails_at_arm(self):
        sim = Simulator()
        net = build_star(sim, ["a", "b"], rate_gbps=40.0, delay_ns=US)
        plan = FaultPlan(specs=(LinkFlap("nope->sw0", 0, 100),))
        with pytest.raises(KeyError, match="unknown link 'nope->sw0'"):
            FaultInjector(sim, plan).attach_network(net).arm()

    def test_unknown_ssd_fails_at_arm(self):
        sim = Simulator()
        plan = FaultPlan(specs=(DieFailure("ghost", chip=0, at_ns=0),))
        with pytest.raises(KeyError, match="unknown SSD 'ghost'"):
            FaultInjector(sim, plan).arm()

    def test_chip_out_of_range_fails_at_arm(self):
        sim = Simulator()
        backend = FlashBackend(sim, FAST_SSD)
        plan = FaultPlan(specs=(DieFailure("s", chip=10_000, at_ns=0),))
        injector = FaultInjector(sim, plan).attach_ssd("s", backend)
        with pytest.raises(ValueError, match="out of range"):
            injector.arm()

    @pytest.mark.parametrize(
        "spec",
        [
            SlowDie("s", chip=FAST_SSD.n_chips, start_ns=0, end_ns=100),
            ChannelBrownout("s", channel=FAST_SSD.n_channels, start_ns=0, end_ns=100),
        ],
        ids=["slow-die-chip", "brownout-channel"],
    )
    def test_slowdown_index_out_of_range_fails_at_arm(self, spec):
        sim = Simulator()
        backend = FlashBackend(sim, FAST_SSD)
        injector = FaultInjector(sim, FaultPlan(specs=(spec,))).attach_ssd("s", backend)
        with pytest.raises(ValueError, match="out of range"):
            injector.arm()
        assert sim.pending() == 0  # nothing armed before the bad spec failed

    def test_arming_twice_rejected(self):
        sim = Simulator()
        injector = FaultInjector(sim, FaultPlan())
        injector.arm()
        with pytest.raises(RuntimeError, match="already armed"):
            injector.arm()


class TestInjection:
    def test_loss_burst_drops_and_recovers(self):
        plan = FaultPlan(
            seed=5, specs=(LossBurst("a->sw0", 0, 2 * MS, loss_prob=0.2),)
        )
        sim, net, delivered, injector = build_cell(plan)
        sim.run(until=50 * MS)
        assert injector is not None
        summary = injector.loss_summary()
        assert summary["a->sw0"]["lost"] > 0
        assert len(delivered) == 20  # every message recovered
        assert injector.faults_fired == 1

    def test_same_seed_same_loss_pattern(self):
        def counts(seed: int) -> tuple[int, int]:
            plan = FaultPlan(
                seed=seed,
                specs=(
                    LossBurst(
                        "a->sw0", 0, 2 * MS, loss_prob=0.1, corrupt_prob=0.05
                    ),
                ),
            )
            sim, net, delivered, injector = build_cell(plan)
            sim.run(until=50 * MS)
            assert injector is not None
            link = injector.loss_summary()["a->sw0"]
            return link["lost"], link["corrupted"]

        assert counts(7) == counts(7)
        # Different seeds draw a different pattern (overwhelmingly likely
        # over a few hundred packets; fixed seeds keep this stable).
        assert counts(7) != counts(8)

    def test_link_flap_freezes_then_delivers(self):
        plan = FaultPlan(specs=(LinkFlap("sw0->b", 100_000, 600_000),))
        sim, net, delivered, injector = build_cell(plan)
        sim.run(until=50 * MS)
        assert len(delivered) == 20
        link = net.find_link("sw0->b")
        assert not link.down

    def test_empty_plan_changes_nothing(self):
        sim_a, _, delivered_a, _ = build_cell(FaultPlan())
        sim_b, _, delivered_b, _ = build_cell(None)
        sim_a.run(until=50 * MS)
        sim_b.run(until=50 * MS)
        assert delivered_a == delivered_b
        assert sim_a.events_dispatched == sim_b.events_dispatched
