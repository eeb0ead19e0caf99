"""Integrated NVMe-oF testbed: network + fabric + drivers + SSDs + SRC.

Builds the paper's evaluation shape (§IV-A/IV-D): N initiators and M
targets on a switched fabric, each target running one simulated SSD
behind an NVMe driver, DCQCN as the network congestion control, and
optionally the SRC controller adjusting SSQ weights from DCQCN rate
notifications.

Congestion comes from the workload itself (in-cast of read data toward
initiators) and, when configured, from a background traffic episode
aimed at the first initiator — the knob used to reproduce the Fig. 7
congestion-then-relief timeline.

The paper's fabric is lossless RoCEv2 under PFC, and nothing here
recovers a lost packet, so :func:`run_testbed` checks that the run
stayed lossless with :mod:`repro.faults` (DESIGN §7).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from repro.experiments.metrics import ThroughputSeries, trim_series

if TYPE_CHECKING:  # imported lazily at runtime to avoid a package cycle
    from repro.core.controller import BlockRateController, SRCController
    from repro.core.tpm import ThroughputPredictionModel
    from repro.nvme.block_sched import BlockLayerThrottle
from repro.fabric.initiator import Initiator
from repro.fabric.target import Target
from repro.faults import StuckIOWatchdog, check_no_drops
from repro.net.nic import NICConfig
from repro.net.switch import SwitchConfig
from repro.net.topology import Network, build_star
from repro.nvme.driver import DefaultNvmeDriver
from repro.nvme.ssq import SSQDriver
from repro.sim.engine import Simulator
from repro.sim.units import MS, gbps_to_bytes_per_ns
from repro.ssd.config import SSDConfig
from repro.ssd.device import SSD
from repro.workloads.traces import Trace

#: Size of each background message.
BACKGROUND_MESSAGE_BYTES = 64 * 1024


@dataclass(frozen=True)
class BackgroundTraffic:
    """An in-cast episode toward initiator 0 (congestion inducer).

    ``n_hosts`` senders each offer ``rate_gbps`` at the victim's downlink
    during the window.  Because DCQCN converges toward per-flow fairness,
    more hosts squeeze the target→initiator read flows harder — the same
    mechanism that congests inbound flows in the paper's full Clos runs.
    """

    start_ns: int
    end_ns: int
    rate_gbps: float
    n_hosts: int = 1

    def __post_init__(self) -> None:
        if self.end_ns <= self.start_ns:
            raise ValueError("background episode must have positive duration")
        if self.rate_gbps <= 0:
            raise ValueError("background rate must be positive")
        if self.n_hosts < 1:
            raise ValueError("need at least one background host")


@dataclass(frozen=True)
class TestbedConfig:
    """Everything needed to assemble one run."""

    __test__ = False  # not a pytest test class despite the name

    n_initiators: int = 1
    n_targets: int = 2
    ssd_config: SSDConfig | None = None
    #: "default" (FIFO), "ssq" (§III-A separate queues), or "block"
    #: (§V block-layer throttle above a FIFO driver).
    driver: str = "ssq"
    src_enabled: bool = False
    nic_config: NICConfig | None = None
    switch_config: SwitchConfig | None = None
    background: BackgroundTraffic | None = None
    src_window_ns: int = 10 * MS
    src_min_interval_ns: int = 1 * MS

    def __post_init__(self) -> None:
        if self.n_initiators < 1 or self.n_targets < 1:
            raise ValueError("node counts must be >= 1")
        if self.driver not in ("ssq", "default", "block"):
            raise ValueError(f"unknown driver {self.driver!r}")
        if self.src_enabled and self.driver == "default":
            raise ValueError("SRC requires the SSQ or block-layer driver")


@dataclass
class RunResult:
    """Measurements from one testbed run."""

    duration_ns: int
    read_series: ThroughputSeries
    write_series: ThroughputSeries
    pause_times_ns: list[int]
    initiators: list[Initiator]
    targets: list[Target]
    controllers: list[SRCController | BlockRateController]
    network: Network
    sim: Simulator
    bin_ns: int = MS

    @property
    def aggregated_series(self) -> ThroughputSeries:
        return self.read_series + self.write_series

    @property
    def sim_events(self) -> int:
        return self.sim.events_dispatched

    def trimmed_read_gbps(self, fraction: float = 0.1) -> float:
        return trim_series(self.read_series, fraction).mean()

    def trimmed_write_gbps(self, fraction: float = 0.1) -> float:
        return trim_series(self.write_series, fraction).mean()

    def trimmed_aggregated_gbps(self, fraction: float = 0.1) -> float:
        return trim_series(self.aggregated_series, fraction).mean()

    def pause_counts_per_ms(self) -> tuple[np.ndarray, np.ndarray]:
        """(bin starts ns, CNPs per ms) over the run."""
        n_bins = max(1, -(-self.duration_ns // MS))
        counts = np.zeros(n_bins)
        for t in self.pause_times_ns:
            if 0 <= t < self.duration_ns:
                counts[t // MS] += 1
        return np.arange(n_bins, dtype=np.int64) * MS, counts


class _BackgroundFeeder:
    """Self-rescheduling background-traffic source (slotted so a mid-
    episode checkpoint can pickle the pending feed event)."""

    __slots__ = ("sim", "nic", "victim", "end_ns", "gap_ns")

    def __init__(self, sim, nic, victim, end_ns, gap_ns):
        self.sim = sim
        self.nic = nic
        self.victim = victim
        self.end_ns = end_ns
        self.gap_ns = gap_ns

    def __call__(self) -> None:
        if self.sim.now >= self.end_ns:
            return
        self.nic.send_message(self.victim, BACKGROUND_MESSAGE_BYTES)
        self.sim.schedule_anon(self.gap_ns, self)


def _make_driver(
    config: TestbedConfig, sim: Simulator
) -> "SSQDriver | DefaultNvmeDriver | BlockLayerThrottle":
    if config.driver == "ssq":
        return SSQDriver(read_weight=1, write_weight=1)
    if config.driver == "block":
        from repro.nvme.block_sched import BlockLayerThrottle

        return BlockLayerThrottle(sim, DefaultNvmeDriver())
    return DefaultNvmeDriver()


def run_testbed(
    trace: Trace,
    config: TestbedConfig,
    *,
    tpm: ThroughputPredictionModel | None = None,
    duration_ns: int | None = None,
    drain_margin_ns: int = 20 * MS,
    bin_ns: int = MS,
) -> RunResult:
    """Assemble the testbed, replay ``trace``, and collect measurements.

    Requests are assigned round-robin to initiators and, independently,
    round-robin to targets (every initiator talks to every target —
    the in-cast pattern).

    Raises :class:`~repro.faults.StuckIOError` if the event heap drains
    with commands still in flight, and
    :class:`~repro.faults.PacketDropError` if any switch dropped a
    packet (see :mod:`repro.faults`).
    """
    if len(trace) == 0:
        raise ValueError("cannot run an empty trace")
    if config.src_enabled and config.driver == "ssq" and tpm is None:
        raise ValueError("SRC with the SSQ driver needs a fitted TPM")

    sim = Simulator()
    init_names = [f"init{i}" for i in range(config.n_initiators)]
    tgt_names = [f"tgt{j}" for j in range(config.n_targets)]
    bg_names = (
        [f"bg{i}" for i in range(config.background.n_hosts)] if config.background else []
    )
    net = build_star(
        sim,
        init_names + tgt_names + bg_names,
        nic_config=config.nic_config,
        switch_config=config.switch_config,
    )

    ssd_config = config.ssd_config
    if ssd_config is None:
        from repro.ssd.config import SSD_A

        ssd_config = SSD_A

    targets: list[Target] = []
    controllers: list[SRCController | BlockRateController] = []
    for name in tgt_names:
        target = Target(sim, net.hosts[name], SSD(sim, ssd_config), _make_driver(config, sim))
        targets.append(target)
        if config.src_enabled and config.driver == "ssq":
            from repro.core.controller import SRCController

            assert tpm is not None  # validated on entry
            src_controller = SRCController(
                tpm,
                window_ns=config.src_window_ns,
                min_adjust_interval_ns=config.src_min_interval_ns,
            )
            src_controller.attach(target, sim)
            controllers.append(src_controller)
        elif config.src_enabled and config.driver == "block":
            from repro.core.controller import BlockRateController

            block_controller = BlockRateController(
                min_adjust_interval_ns=config.src_min_interval_ns
            )
            block_controller.attach(target, sim)
            controllers.append(block_controller)

    initiators = [Initiator(sim, net.hosts[name]) for name in init_names]
    sim.watchdog = StuckIOWatchdog(initiators, net.switches).check_now

    # Round-robin request assignment; the whole trace is one series.
    arrivals = []
    for idx, req in enumerate(trace):
        initiator = initiators[idx % len(initiators)]
        req.target = tgt_names[idx % len(tgt_names)]
        req.initiator = initiator.name
        arrivals.append((req.arrival_ns, initiator.issue, (req,)))
    sim.schedule_series_at(arrivals)

    # Background congestion episode.
    if config.background:
        bg = config.background
        gap_ns = max(1, int(BACKGROUND_MESSAGE_BYTES / gbps_to_bytes_per_ns(bg.rate_gbps)))
        for name in bg_names:
            feeder = _BackgroundFeeder(sim, net.hosts[name], init_names[0], bg.end_ns, gap_ns)
            sim.schedule_at_anon(bg.start_ns, feeder)

    end = duration_ns if duration_ns is not None else trace[-1].arrival_ns + drain_margin_ns
    sim.run(until=end)
    check_no_drops(net.switches)

    read_events = [ev for ini in initiators for ev in ini.read_deliveries]
    write_events = [ev for tgt in targets for ev in tgt.write_completions]
    pause_times = sorted(t for tgt in targets for t in tgt.nic.cnp_log)

    return RunResult(
        duration_ns=end,
        read_series=ThroughputSeries.from_events(read_events, bin_ns, end),
        write_series=ThroughputSeries.from_events(write_events, bin_ns, end),
        pause_times_ns=pause_times,
        initiators=initiators,
        targets=targets,
        controllers=controllers,
        network=net,
        sim=sim,
        bin_ns=bin_ns,
    )
