"""BlockRateController and the demanded-rate helper."""

import pytest

from repro.core.controller import BlockRateController, demanded_rate_gbps
from repro.net.dcqcn import RateChange


class FakeSim:
    now = 0


class FakeRc:
    def __init__(self, rate):
        self.current_rate_gbps = rate


class FakeFlow:
    def __init__(self, rate):
        self.rate_control = FakeRc(rate)


class FakeLink:
    rate_gbps = 40.0


class FakeNic:
    def __init__(self, rates):
        self.flows = {f"f{i}": FakeFlow(r) for i, r in enumerate(rates)}
        self.rate_listeners = []
        self.link = FakeLink()


class FakeThrottle:
    def __init__(self):
        self.rates = []

    def set_read_rate(self, gbps):
        self.rates.append(gbps)


class FakeTarget:
    def __init__(self, rates):
        self.nic = FakeNic(rates)
        self.driver = FakeThrottle()

    def add_rate_listener(self, listener):
        self.nic.rate_listeners.append(listener)


class TestBlockRateController:
    def test_applies_demanded_rate(self):
        target = FakeTarget(rates=[6.0])
        ctrl = BlockRateController(min_adjust_interval_ns=0)
        ctrl.attach(target, FakeSim())
        ctrl._on_rate_change(None, RateChange(0, 6.0, True))
        assert target.driver.rates == [6.0]
        assert ctrl.adjustments[-1].demanded_rate_gbps == 6.0

    def test_lifts_cap_near_line_rate(self):
        target = FakeTarget(rates=[39.9])
        ctrl = BlockRateController(min_adjust_interval_ns=0)
        ctrl.attach(target, FakeSim())
        ctrl._on_rate_change(None, RateChange(0, 39.9, False))
        assert target.driver.rates == [None]

    def test_debounce(self):
        target = FakeTarget(rates=[5.0])
        ctrl = BlockRateController(min_adjust_interval_ns=10**9)
        ctrl.attach(target, FakeSim())
        ctrl._on_rate_change(None, RateChange(0, 5.0, True))
        ctrl._on_rate_change(None, RateChange(0, 4.0, True))
        assert len(ctrl.adjustments) == 1

    def test_aggregate_rate_capped_at_line(self):
        assert demanded_rate_gbps(FakeNic(rates=[30.0, 30.0])) == 40.0
        assert demanded_rate_gbps(FakeNic(rates=[3.0, 4.0])) == 7.0
        assert demanded_rate_gbps(FakeNic(rates=[])) == 40.0  # no flows yet

    def test_validation(self):
        with pytest.raises(ValueError):
            BlockRateController(min_adjust_interval_ns=-1)
