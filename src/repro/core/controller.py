"""SRC controller — Algorithm 1 and its online integration.

:func:`predict_weight_ratio` is a line-for-line implementation of the
paper's ``PredictWeightRatio``: starting from ``w = 1``, predicted read
throughput is walked down by raising the write weight until successive
predictions converge (relative change below τ), returning the ratio
whose predicted read throughput is closest to the demanded rate.

:class:`SRCController` provides both modes of ``DynamicAdjustment``:

* **offline** (:meth:`dynamic_adjustment`) — given a list of congestion
  events and a workload trace, return the ratio chosen at each event
  (the Fig. 9 experiment shape);
* **online** (:meth:`attach`) — subscribe to a target's DCQCN rate
  changes; each notification becomes a pause/retrieval event, the
  workload monitor supplies Ch for the trailing window, and the chosen
  weights are applied to the target's SSQ drivers.  Adjustments are
  debounced to one per ``min_adjust_interval_ns``.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.events import CongestionEvent, EventKind
from repro.core.monitor import WorkloadMonitor
from repro.core.tpm import ThroughputPredictionModel
from repro.sim.units import MS
from repro.workloads.features import WorkloadFeatures, extract_features
from repro.workloads.traces import Trace

#: Safety cap on the searched weight ratio; the convergence criterion
#: normally stops the walk long before this.
MAX_WEIGHT_RATIO = 64


class BlockRateController:
    """§V extension: direct block-layer read-rate control.

    Subscribes to a target's DCQCN rate changes like
    :class:`SRCController`, but instead of predicting a weight ratio it
    applies the demanded sending rate directly to each device's
    :class:`~repro.nvme.block_sched.BlockLayerThrottle` (split evenly
    over the flash array).  No TPM required.
    """

    def __init__(
        self,
        *,
        min_adjust_interval_ns: int = 1_000_000,
        line_rate_gbps: float = 40.0,
        release_fraction: float = 0.95,
    ) -> None:
        if min_adjust_interval_ns < 0:
            raise ValueError("adjust interval must be non-negative")
        if not 0.0 < release_fraction <= 1.0:
            raise ValueError("release fraction must be in (0, 1]")
        self.min_adjust_interval_ns = min_adjust_interval_ns
        self.line_rate_gbps = line_rate_gbps
        self.release_fraction = release_fraction
        self.adjustments: list[AdjustmentRecord] = []
        self._last_adjust_ns = -(10**18)
        self._target = None
        self._sim = None

    def attach(self, target, sim) -> None:
        self._target = target
        self._sim = sim
        target.add_rate_listener(self._on_rate_change)

    def _aggregate_rate_gbps(self) -> float:
        total = sum(
            f.rate_control.current_rate_gbps for f in self._target.nic.flows.values()
        )
        return min(self.line_rate_gbps, total) if total > 0 else self.line_rate_gbps

    def _on_rate_change(self, flow, change) -> None:
        now = self._sim.now
        if now - self._last_adjust_ns < self.min_adjust_interval_ns:
            return
        self._last_adjust_ns = now
        demanded = self._aggregate_rate_gbps()
        kind = EventKind.PAUSE if change.decreased else EventKind.RETRIEVAL
        n = max(1, len(self._target.drivers))
        per_device = demanded / n
        for driver in self._target.drivers:
            setter = getattr(driver, "set_read_rate", None)
            if setter is None:
                continue
            if demanded >= self.line_rate_gbps * self.release_fraction:
                setter(None)  # congestion cleared: lift the cap
            else:
                setter(per_device)
        self.adjustments.append(
            AdjustmentRecord(
                time_ns=now, demanded_rate_gbps=demanded, weight_ratio=1, kind=kind
            )
        )


def predict_weight_ratio(
    tpm: ThroughputPredictionModel,
    demanded_rate_gbps: float,
    features: WorkloadFeatures,
    *,
    tau: float = 0.1,
    max_ratio: int = MAX_WEIGHT_RATIO,
) -> int:
    """Algorithm 1, ``PredictWeightRatio(r, Ch)``.

    Returns the write:read weight ratio whose predicted read throughput
    is closest to ``demanded_rate_gbps``.
    """
    if demanded_rate_gbps <= 0:
        raise ValueError(f"demanded rate must be positive, got {demanded_rate_gbps}")
    if not 0.0 < tau < 1.0:
        raise ValueError(f"tau must be in (0, 1), got {tau}")
    w = 1
    best_w = 1
    read_tput, _ = tpm.predict(features, w)
    if read_tput < demanded_rate_gbps:
        # The device already reads slower than the network allows.
        return 1
    min_dis = abs(read_tput - demanded_rate_gbps)
    while True:
        w += 1
        prev_tput = read_tput
        read_tput, _ = tpm.predict(features, w)
        dis = abs(read_tput - demanded_rate_gbps)
        if dis < min_dis:
            min_dis = dis
            best_w = w
        cur_tput = read_tput
        if prev_tput <= 0:
            break
        if abs(prev_tput - cur_tput) / prev_tput < tau:
            break
        if w >= max_ratio:
            break
    return best_w


@dataclass
class AdjustmentRecord:
    """One applied adjustment (for Fig. 9-style inspection)."""

    time_ns: int
    demanded_rate_gbps: float
    weight_ratio: int
    kind: EventKind


class SRCController:
    """Storage-side rate control for one target."""

    def __init__(
        self,
        tpm: ThroughputPredictionModel,
        *,
        window_ns: int = 10 * MS,
        tau: float = 0.1,
        min_adjust_interval_ns: int = 1 * MS,
        line_rate_gbps: float = 40.0,
    ) -> None:
        if min_adjust_interval_ns < 0:
            raise ValueError("adjust interval must be non-negative")
        self.tpm = tpm
        self.monitor = WorkloadMonitor(window_ns)
        self.tau = tau
        self.min_adjust_interval_ns = min_adjust_interval_ns
        self.line_rate_gbps = line_rate_gbps
        self.adjustments: list[AdjustmentRecord] = []
        self.current_ratio = 1
        self._last_adjust_ns = -(10**18)
        self._target = None
        self._sim = None

    # -- offline mode (Algorithm 1 verbatim) ---------------------------------
    def dynamic_adjustment(
        self, events: list[CongestionEvent], workload: Trace, window_ns: int | None = None
    ) -> list[int]:
        """``DynamicAdjustment(E, WL, δ)`` — returns the ratio per event."""
        delta = window_ns if window_ns is not None else self.monitor.window_ns
        ratios: list[int] = []
        for event in events:
            window = workload.window(max(0, event.time_ns - delta), event.time_ns)
            if len(window) == 0:
                ratios.append(1)
                continue
            features = extract_features(window, window_ns=delta)
            w = predict_weight_ratio(
                self.tpm, event.demanded_rate_gbps, features, tau=self.tau
            )
            ratios.append(w)
        return ratios

    # -- online mode ------------------------------------------------------------
    def attach(self, target, sim) -> None:
        """Wire this controller to a fabric target.

        Subscribes to the target NIC's DCQCN rate changes and to the
        target's command arrivals, so the workload monitor sees every
        request.
        """
        self._target = target
        self._sim = sim
        target.arrival_listeners.append(self.monitor.observe)
        target.add_rate_listener(self._on_rate_change)

    def _aggregate_rate_gbps(self) -> float:
        """The demanded data sending rate: sum of flow rates, capped."""
        total = sum(
            f.rate_control.current_rate_gbps for f in self._target.nic.flows.values()
        )
        return min(self.line_rate_gbps, total) if total > 0 else self.line_rate_gbps

    def _on_rate_change(self, flow, change) -> None:
        now = self._sim.now
        if now - self._last_adjust_ns < self.min_adjust_interval_ns:
            return
        self._last_adjust_ns = now
        demanded = self._aggregate_rate_gbps()
        kind = EventKind.PAUSE if change.decreased else EventKind.RETRIEVAL
        self.handle_event(CongestionEvent(max(0, now), demanded, kind))

    def handle_event(self, event: CongestionEvent) -> int:
        """Process one congestion event: predict and apply a new ratio.

        The demanded sending rate arrives per *target*; the TPM predicts
        per *device*.  With a flash array behind the target, both the
        rate and the observed workload are scaled down to one device's
        share before the prediction.
        """
        if self._sim is None or self._target is None:
            raise RuntimeError("controller is not attached to a target")
        now = self._sim.now
        n_devices = max(1, len(getattr(self._target, "drivers", [])) or 1)
        if self.monitor.in_window(now) < 2:
            w = 1  # nothing to profile yet; neutral weights
        else:
            features = self.monitor.features(now).per_device(n_devices)
            w = predict_weight_ratio(
                self.tpm,
                event.demanded_rate_gbps / n_devices,
                features,
                tau=self.tau,
            )
        if w != self.current_ratio:
            self.current_ratio = w
            self._target.set_ssq_weights(1, w)
        self.adjustments.append(
            AdjustmentRecord(
                time_ns=now,
                demanded_rate_gbps=event.demanded_rate_gbps,
                weight_ratio=w,
                kind=event.kind,
            )
        )
        return w
