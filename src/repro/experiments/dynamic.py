"""Fig. 9: dynamic throughput adjustment under synthetic congestion events.

A device-level run on one SSD: a saturating workload replays through an
SSQ driver while a schedule of pause/retrieval events (each carrying a
demanded data sending rate) fires.  At each event SRC profiles the
trailing window, runs ``PredictWeightRatio``, and applies the weights.
The read-throughput time series shows the convergence; the recorded
per-event convergence delays back the §IV-E "average control delay
≈ 7.3 ms" measurement.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.controller import predict_weight_ratio
from repro.core.events import CongestionEvent
from repro.core.monitor import WorkloadMonitor
from repro.core.tpm import ThroughputPredictionModel
from repro.experiments.metrics import ThroughputSeries
from repro.nvme.ssq import SSQDriver
from repro.sim.engine import Simulator
from repro.sim.units import MS
from repro.ssd.config import SSDConfig
from repro.ssd.device import SSD
from repro.workloads.traces import Trace


class _MonitoredFeed:
    """Arrival-time submission that also feeds the workload monitor
    (slotted module class instead of a per-request closure so pending
    submissions stay checkpoint-picklable)."""

    __slots__ = ("monitor", "driver", "sim")

    def __init__(self, monitor: WorkloadMonitor, driver: SSQDriver, sim: Simulator):
        self.monitor = monitor
        self.driver = driver
        self.sim = sim

    def __call__(self, req) -> None:
        self.monitor.observe(req, self.sim.now)
        self.driver.submit(req, now_ns=self.sim.now)


class _SRCAdjuster:
    """One scheduled SRC weight adjustment (slotted module class instead
    of a per-event closure so pending adjustments stay
    checkpoint-picklable)."""

    __slots__ = ("sim", "monitor", "driver", "tpm", "tau", "outcomes", "event")

    def __init__(
        self,
        sim: Simulator,
        monitor: WorkloadMonitor,
        driver: SSQDriver,
        tpm: ThroughputPredictionModel,
        tau: float,
        outcomes: list["AdjustmentOutcome"],
        event: CongestionEvent,
    ) -> None:
        self.sim = sim
        self.monitor = monitor
        self.driver = driver
        self.tpm = tpm
        self.tau = tau
        self.outcomes = outcomes
        self.event = event

    def apply(self) -> None:
        if self.monitor.in_window(self.sim.now) >= 2:
            features = self.monitor.features(self.sim.now)
            w = predict_weight_ratio(
                self.tpm, self.event.demanded_rate_gbps, features, tau=self.tau
            )
        else:
            w = 1
        self.driver.set_weights(1, w, now_ns=self.sim.now)
        self.outcomes.append(
            AdjustmentOutcome(
                event=self.event, weight_ratio=w, convergence_delay_ns=-1
            )
        )


@dataclass
class AdjustmentOutcome:
    """What happened at one congestion event."""

    event: CongestionEvent
    weight_ratio: int
    convergence_delay_ns: int  # -1 if never converged before the next event


@dataclass
class DynamicControlResult:
    read_series: ThroughputSeries
    write_series: ThroughputSeries
    outcomes: list[AdjustmentOutcome]

    def mean_control_delay_ns(self) -> float:
        """Average convergence delay over events that converged."""
        delays = [o.convergence_delay_ns for o in self.outcomes if o.convergence_delay_ns >= 0]
        return float(np.mean(delays)) if delays else float("nan")


def run_dynamic_control(
    trace: Trace,
    config: SSDConfig,
    tpm: ThroughputPredictionModel,
    events: list[CongestionEvent],
    *,
    window_ns: int = 10 * MS,
    tau: float = 0.1,
    bin_ns: int = MS,
    convergence_band: float = 0.25,
    duration_ns: int | None = None,
) -> DynamicControlResult:
    """Replay ``trace`` on one SSD while applying ``events`` through SRC.

    ``convergence_band``: an adjustment counts as converged once the
    binned read throughput stays within ±band of the demanded rate (or
    has crossed it from the starting side).
    """
    if not events:
        raise ValueError("need at least one congestion event")
    if sorted(e.time_ns for e in events) != [e.time_ns for e in events]:
        raise ValueError("events must be time-ordered")

    sim = Simulator()
    ssd = SSD(sim, config)
    driver = SSQDriver(1, 1)
    driver.connect(ssd)
    ssd.set_cq_listener(ssd.auto_drain)

    monitor = WorkloadMonitor(window_ns)

    feed = _MonitoredFeed(monitor, driver, sim)
    sim.schedule_series_at([(req.arrival_ns, feed, (req,)) for req in trace])

    outcomes: list[AdjustmentOutcome] = []

    for event in events:
        adjuster = _SRCAdjuster(sim, monitor, driver, tpm, tau, outcomes, event)
        sim.schedule_at(event.time_ns, adjuster.apply)

    end = duration_ns if duration_ns is not None else trace[-1].arrival_ns
    sim.run(until=end)

    events_read = [
        (t, r.size_bytes) for t, r in ssd.controller.completion_log if r.is_read
    ]
    events_write = [
        (t, r.size_bytes) for t, r in ssd.controller.completion_log if not r.is_read
    ]
    read_series = ThroughputSeries.from_events(events_read, bin_ns, end)
    write_series = ThroughputSeries.from_events(events_write, bin_ns, end)

    _fill_convergence_delays(read_series, outcomes, end, bin_ns, convergence_band)
    return DynamicControlResult(
        read_series=read_series, write_series=write_series, outcomes=outcomes
    )


def _fill_convergence_delays(
    read_series: ThroughputSeries,
    outcomes: list[AdjustmentOutcome],
    end_ns: int,
    bin_ns: int,
    band: float,
) -> None:
    for i, outcome in enumerate(outcomes):
        t0 = outcome.event.time_ns
        t1 = outcomes[i + 1].event.time_ns if i + 1 < len(outcomes) else end_ns
        demanded = outcome.event.demanded_rate_gbps
        start_bin = int(t0 // bin_ns)
        end_bin = min(int(t1 // bin_ns), read_series.gbps.size)
        if start_bin >= read_series.gbps.size or start_bin >= end_bin:
            continue
        start_rate = read_series.gbps[start_bin]
        above = start_rate > demanded
        for b in range(start_bin, end_bin):
            rate = read_series.gbps[b]
            within = abs(rate - demanded) <= band * max(demanded, 1e-9)
            crossed = (rate <= demanded) if above else (rate >= demanded)
            if within or crossed:
                outcome.convergence_delay_ns = max(0, b * bin_ns - t0)
                break
