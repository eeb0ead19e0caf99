"""Algorithm 1 (PredictWeightRatio / DynamicAdjustment) and the online SRC."""

import pytest

from repro.core.controller import SRCController, predict_weight_ratio
from repro.core.events import CongestionEvent, EventKind
from repro.core.tpm import ThroughputPredictionModel
from repro.workloads.features import WorkloadFeatures, extract_features
from repro.workloads.micro import MicroWorkloadConfig, generate_micro_trace


def features():
    wl = MicroWorkloadConfig(3_000, 8 * 1024)
    return extract_features(generate_micro_trace(wl, n_reads=400, n_writes=400, seed=5))


class FakeTPM:
    """Deterministic TPM: read throughput = base / w (+ write fills up)."""

    def __init__(self, base=8.0):
        self.base = base
        self.fitted = True

    def predict(self, features, w):
        return self.base / w, 4.0 + self.base - self.base / w


class TestPredictWeightRatio:
    def test_returns_one_when_already_below_demand(self):
        assert predict_weight_ratio(FakeTPM(8.0), 10.0, None) == 1

    def test_picks_closest_ratio(self):
        # base/w: 8, 4, 2.67, 2, 1.6 ... demanded 2.5 -> w=3 (2.67).
        assert predict_weight_ratio(FakeTPM(8.0), 2.5, None, tau=0.01) == 3

    def test_exact_hit(self):
        assert predict_weight_ratio(FakeTPM(8.0), 4.0, None, tau=0.01) == 2

    def test_convergence_threshold_stops_search(self):
        # With tau=0.5, the walk stops as soon as successive predictions
        # differ by <50%: |8-4|/8 = 0.5 ≥ tau keeps going; |4-2.67|/4 =
        # 0.33 < 0.5 stops at w=3.
        w = predict_weight_ratio(FakeTPM(8.0), 0.1, None, tau=0.5)
        assert w == 3

    def test_max_ratio_cap(self):
        w = predict_weight_ratio(FakeTPM(1000.0), 0.001, None, tau=0.0001, max_ratio=10)
        assert w <= 10

    def test_validation(self):
        with pytest.raises(ValueError):
            predict_weight_ratio(FakeTPM(), 0.0, None)
        with pytest.raises(ValueError):
            predict_weight_ratio(FakeTPM(), 1.0, None, tau=0.0)

    def test_with_real_tpm(self, tiny_tpm):
        f = features()
        base = tiny_tpm.predict_read(f, 1)
        w = predict_weight_ratio(tiny_tpm, base / 3, f)
        assert w >= 2
        # Demanding more than the device can read keeps weights neutral.
        assert predict_weight_ratio(tiny_tpm, base * 10, f) == 1


class TestDynamicAdjustmentOffline:
    def test_ratios_per_event(self):
        controller = SRCController(FakeTPM(8.0), window_ns=10_000, tau=0.01)
        wl = MicroWorkloadConfig(100, 8 * 1024)
        trace = generate_micro_trace(wl, n_reads=500, n_writes=500, seed=6)
        events = [
            CongestionEvent(20_000, 4.0, EventKind.PAUSE),
            CongestionEvent(40_000, 2.0, EventKind.PAUSE),
        ]
        ratios = controller.dynamic_adjustment(events, trace)
        assert ratios == [2, 4]

    def test_empty_window_defaults_to_one(self):
        controller = SRCController(FakeTPM(8.0), window_ns=1_000)
        trace = generate_micro_trace(
            MicroWorkloadConfig(100, 8 * 1024), n_reads=10, n_writes=10, seed=7,
            start_ns=10**9,
        )
        events = [CongestionEvent(500, 2.0, EventKind.PAUSE)]  # before any arrival
        assert controller.dynamic_adjustment(events, trace) == [1]


class TestOnlineController:
    def test_handle_event_requires_attachment(self):
        controller = SRCController(FakeTPM())
        with pytest.raises(RuntimeError):
            controller.handle_event(CongestionEvent(0, 1.0, EventKind.PAUSE))

    def test_attached_controller_adjusts_target(self, fast_ssd):
        from repro.fabric.initiator import Initiator
        from repro.fabric.target import Target
        from repro.net.topology import build_star
        from repro.nvme.ssq import SSQDriver
        from repro.sim.engine import Simulator
        from repro.ssd.device import SSD
        from repro.workloads.request import IORequest, OpType

        sim = Simulator()
        net = build_star(sim, ["ini", "tgt"])
        target = Target(sim, net.hosts["tgt"], SSD(sim, fast_ssd), SSQDriver())
        initiator = Initiator(sim, net.hosts["ini"])
        controller = SRCController(FakeTPM(8.0), window_ns=10**8, tau=0.01,
                                   min_adjust_interval_ns=0)
        controller.attach(target, sim)

        # Feed some traffic so the monitor has a window.
        for i in range(20):
            r = IORequest(arrival_ns=0, op=OpType.READ if i % 2 else OpType.WRITE,
                          lba=i * 1000, size_bytes=4096)
            r.target = "tgt"
            initiator.issue(r)
        sim.run()
        assert controller.monitor.observed == 20

        # Simulate a DCQCN cut notification.
        controller.handle_event(CongestionEvent(sim.now, 2.0, EventKind.PAUSE))
        assert controller.current_ratio == 4
        assert target.driver.weight_ratio == 4.0
        assert controller.adjustments[-1].kind is EventKind.PAUSE

    def test_debounce_limits_adjustment_rate(self):
        controller = SRCController(FakeTPM(), min_adjust_interval_ns=1_000_000)

        class FakeSim:
            now = 0

        class FakeFlowRc:
            current_rate_gbps = 5.0

        class FakeFlow:
            rate_control = FakeFlowRc()

        class FakeLink:
            rate_gbps = 40.0

        class FakeNic:
            flows = {"x": FakeFlow()}
            rate_listeners = []
            link = FakeLink()

        class FakeTarget:
            nic = FakeNic()

            def set_ssq_weights(self, r, w):
                pass

            def add_rate_listener(self, listener):
                pass

        controller._sim = FakeSim()
        controller._target = FakeTarget()

        from repro.net.dcqcn import RateChange

        controller._on_rate_change(None, RateChange(0, 5.0, True))
        n = len(controller.adjustments)
        controller._on_rate_change(None, RateChange(0, 4.0, True))  # debounced
        assert len(controller.adjustments) == n

    def test_validation(self):
        with pytest.raises(ValueError):
            SRCController(FakeTPM(), min_adjust_interval_ns=-1)
