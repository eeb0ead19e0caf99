"""DCQCN-only vs DCQCN-SRC comparisons: the Fig. 7/8, Table IV and
Fig. 10 cells and their drivers.

The §IV-B method: run the same workload once with the default driver
(DCQCN-only) and once with SSQ + the SRC controller (DCQCN-SRC),
measure trimmed aggregated throughput (reads at initiators + writes at
targets), and report the improvement.  §V adds a third arm, the
block-layer throttle.

Congestion in these experiments is endogenous in-cast: the targets'
SSDs together read faster than the victim initiator's downlink, so
inbound read data congests exactly as in the paper's Clos runs.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable

from repro.core.tpm import ThroughputPredictionModel
from repro.experiments.runner import BackgroundTraffic, RunResult, TestbedConfig, run_testbed
from repro.parallel import run_cells
from repro.sim.units import MS, gbps_to_bytes_per_ns
from repro.ssd.config import SSD_A, SSDConfig
from repro.workloads.micro import MicroWorkloadConfig, generate_micro_trace
from repro.workloads.traces import Trace


@dataclass(frozen=True)
class MicroTraceSpec:
    """Picklable recipe for a micro trace (sweep workers rebuild it).

    A closure-based trace factory cannot cross a process boundary; this
    spec can, and :meth:`build` is deterministic in the seed, so every
    worker reconstructs the identical workload.
    """

    read: MicroWorkloadConfig
    write: MicroWorkloadConfig | None
    n_reads: int
    n_writes: int
    seed: int

    def build(self) -> Trace:
        return generate_micro_trace(
            self.read,
            self.write,
            n_reads=self.n_reads,
            n_writes=self.n_writes,
            seed=self.seed,
        )


def arm_config(base: TestbedConfig, arm: str) -> TestbedConfig:
    """``base`` with the target design of ``arm``.

    ``"dcqcn"`` is DCQCN-only (the stock FIFO driver), ``"src"`` is
    DCQCN-SRC (SSQ/WRR re-weighted by the SRC controller) and
    ``"block"`` is the §V block-layer throttle above a FIFO driver.
    """
    driver, src_enabled = {
        "dcqcn": ("default", False),
        "src": ("ssq", True),
        "block": ("block", True),
    }[arm]
    return replace(base, driver=driver, src_enabled=src_enabled)


@dataclass(frozen=True)
class CongestionCell:
    """One congestion cell: workload, episode, device, run and window.

    The trace's seed is the one EXPERIMENTS.md reports; another seed is
    ``replace(cell, trace=replace(cell.trace, seed=s))``.
    """

    trace: MicroTraceSpec
    background: BackgroundTraffic
    ssd_config: SSDConfig
    duration_ns: int
    #: The steady-congestion measurement window (skips the onset).
    window_ns: tuple[int, int]

    def config(self, arm: str) -> TestbedConfig:
        """The 1 initiator + 2 targets testbed under ``arm``."""
        return arm_config(
            TestbedConfig(background=self.background, ssd_config=self.ssd_config), arm
        )

    def run(
        self, config: TestbedConfig, *, tpm: ThroughputPredictionModel | None = None
    ) -> RunResult:
        """Run the cell's trace on ``config`` (an arm's config, possibly
        ``dataclasses.replace``-d)."""
        return run_testbed(self.trace.build(), config, tpm=tpm, duration_ns=self.duration_ns)

    def window_means(self, result: RunResult) -> tuple[float, float]:
        """Mean (read, write) Gbps over the measurement window."""
        lo, hi = (t // result.bin_ns for t in self.window_ns)
        return (
            float(result.read_series.gbps[lo:hi].mean()),
            float(result.write_series.gbps[lo:hi].mean()),
        )


#: The §IV-D cell (Figs. 7/8, and §V's comparison): a VDI-like,
#: read-intensive workload (44 KiB reads every 10 µs, ≈35 Gbps offered,
#: and 23 KiB writes every 30 µs) on SSD-A targets, while 14 hosts at
#: 10 Gbps each congest the initiator's downlink from 10 to 45 ms.
FIG7_CELL = CongestionCell(
    trace=MicroTraceSpec(
        read=MicroWorkloadConfig(10_000, 44 * 1024),
        write=MicroWorkloadConfig(30_000, 23 * 1024),
        n_reads=6000,
        n_writes=2000,
        seed=11,
    ),
    background=BackgroundTraffic(start_ns=10 * MS, end_ns=45 * MS, rate_gbps=10.0, n_hosts=14),
    ssd_config=SSD_A,
    duration_ns=70 * MS,
    window_ns=(20 * MS, 45 * MS),
)


@dataclass(frozen=True)
class SchemeComparison:
    """Trimmed aggregated throughput (Gbps) of the two schemes on one
    workload: what a sweep worker hands back instead of its worlds."""

    label: str
    only_gbps: float
    src_gbps: float

    @property
    def improvement(self) -> float:
        """Relative aggregated-throughput gain of SRC over DCQCN-only."""
        base = self.only_gbps
        return (self.src_gbps - base) / base if base > 0 else 0.0


def compare_schemes(
    trace_factory: Callable[[], Trace],
    base_config: TestbedConfig,
    tpm: ThroughputPredictionModel,
    *,
    duration_ns: int | None = None,
) -> tuple[RunResult, RunResult]:
    """Run DCQCN-only and DCQCN-SRC on identical workloads."""
    only = run_testbed(
        trace_factory(), arm_config(base_config, "dcqcn"), duration_ns=duration_ns
    )
    src = run_testbed(
        trace_factory(), arm_config(base_config, "src"), tpm=tpm, duration_ns=duration_ns
    )
    return only, src


def _comparison_cell(
    spec: MicroTraceSpec,
    base_config: TestbedConfig,
    tpm: ThroughputPredictionModel,
    label: str,
    duration_ns: int | None,
) -> SchemeComparison:
    """One paired-scheme run — a sweep worker cell."""
    only, src = compare_schemes(spec.build, base_config, tpm, duration_ns=duration_ns)
    return SchemeComparison(
        label, only.trimmed_aggregated_gbps(), src.trimmed_aggregated_gbps()
    )


# -- Table IV: in-cast ratio analysis ------------------------------------------


@dataclass(frozen=True)
class IncastPoint:
    """One Table IV row specification."""

    n_targets: int
    n_initiators: int

    @property
    def label(self) -> str:
        return f"{self.n_targets}:{self.n_initiators}"


#: The paper's Table IV rows.
TABLE4_POINTS = (
    IncastPoint(2, 1),
    IncastPoint(3, 1),
    IncastPoint(4, 1),
    IncastPoint(4, 4),
)


def incast_analysis(
    tpm: ThroughputPredictionModel,
    *,
    points: tuple[IncastPoint, ...] = TABLE4_POINTS,
    ssd_config: SSDConfig = SSD_A,
    n_requests: int = 4500,
    seed: int = 23,
    duration_ns: int | None = 50 * MS,
    workers: int | None = 1,
) -> list[SchemeComparison]:
    """Reproduce Table IV: fixed total traffic, varying in-cast ratio.

    The offered reads (44 KiB) total 38 Gbps regardless of the node
    counts, with 23 KiB writes at half the read rate; a 14-host episode
    congests the first initiator from 8 to 40 ms.  Requests spread
    round-robin over targets and initiators, so per-target intensity
    falls as targets are added (the paper's WRR-degenerates-to-RR
    effect) and per-initiator inbound load falls as initiators are added
    (congestion relief — with several initiators only the episode's
    victim is squeezed, so most of the workload never sees congestion,
    as in the paper's 4:4 row).

    Each row is an independent paired run submitted through
    :mod:`repro.parallel`; ``workers`` fans them across processes with
    results identical to the serial order.
    """
    read_inter_ns = 44 * 1024 / gbps_to_bytes_per_ns(38.0)
    spec = MicroTraceSpec(
        read=MicroWorkloadConfig(read_inter_ns, 44 * 1024),
        write=MicroWorkloadConfig(read_inter_ns / 0.5, 23 * 1024),
        n_reads=n_requests,
        n_writes=int(n_requests * 0.5),
        seed=seed,
    )
    congestion = BackgroundTraffic(start_ns=8 * MS, end_ns=40 * MS, rate_gbps=10.0, n_hosts=14)
    cells = []
    for point in points:
        cfg = TestbedConfig(
            n_initiators=point.n_initiators,
            n_targets=point.n_targets,
            ssd_config=ssd_config,
            background=congestion,
        )
        cells.append((spec, cfg, tpm, point.label, duration_ns))
    return run_cells(_comparison_cell, cells, workers=workers).results


# -- Fig. 10: workload intensity ---------------------------------------------------


@dataclass(frozen=True)
class IntensityLevel:
    """One Fig. 10 workload: average size and arrival rate per direction."""

    label: str
    mean_size_bytes: float
    arrivals_per_ms: float

    @property
    def interarrival_ns(self) -> float:
        return 1e6 / self.arrivals_per_ms


#: The paper's three intensity levels (§IV-F1).
INTENSITY_LEVELS = (
    IntensityLevel("light", 22 * 1024, 60.0),
    IntensityLevel("moderate", 32 * 1024, 80.0),
    IntensityLevel("heavy", 44 * 1024, 100.0),
)


def intensity_analysis(
    tpm: ThroughputPredictionModel,
    *,
    ssd_config: SSDConfig = SSD_A,
    seed: int = 31,
    duration_ns: int | None = 50 * MS,
    workers: int | None = 1,
) -> list[SchemeComparison]:
    """Reproduce Fig. 10: both schemes at light/moderate/heavy intensity.

    Each level runs under the same congestion episode (Fig. 10's runs all
    contain congestion events: 14 hosts from 8 to 36 ms); what
    distinguishes the levels is whether the device queues are deep
    enough for SRC's WRR to act.  Request counts scale with each level's
    arrival rate so every level spans 45 ms.  Levels fan across
    processes via ``workers`` (``None`` = all cores).
    """
    congestion = BackgroundTraffic(start_ns=8 * MS, end_ns=36 * MS, rate_gbps=10.0, n_hosts=14)
    cells = []
    for level in INTENSITY_LEVELS:
        n_requests = max(100, int(level.arrivals_per_ms * 45.0))
        spec = MicroTraceSpec(
            read=MicroWorkloadConfig(level.interarrival_ns, level.mean_size_bytes),
            write=None,
            n_reads=n_requests,
            n_writes=n_requests,
            seed=seed,
        )
        cfg = TestbedConfig(ssd_config=ssd_config, background=congestion)
        cells.append((spec, cfg, tpm, level.label, duration_ns))
    return run_cells(_comparison_cell, cells, workers=workers).results
