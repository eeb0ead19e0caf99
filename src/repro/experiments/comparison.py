"""DCQCN-only vs DCQCN-SRC comparisons: Table IV and Fig. 10 drivers.

The §IV-B method: run the same workload once with the default driver
(DCQCN-only) and once with SSQ + the SRC controller (DCQCN-SRC),
measure trimmed aggregated throughput (reads at initiators + writes at
targets), and report the improvement.

Congestion in these experiments is endogenous in-cast: each target runs
a flash array whose combined read capacity exceeds the victim
initiator's downlink, so inbound read data congests exactly as in the
paper's Clos runs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from repro.core.tpm import ThroughputPredictionModel
from repro.experiments.runner import RunResult, TestbedConfig, run_testbed
from repro.parallel import run_cells
from repro.sim.units import MS, US, gbps_to_bytes_per_ns
from repro.ssd.config import SSDConfig
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


@dataclass
class SchemeComparison:
    """Paired measurement of the two schemes on one workload.

    ``dcqcn_only`` / ``dcqcn_src`` are full :class:`RunResult` objects
    when produced in-process and picklable
    :class:`repro.experiments.runner.RunMeasurement` objects when a
    sweep worker produced them; both expose the trimmed accessors the
    properties below need.
    """

    label: str
    dcqcn_only: RunResult
    dcqcn_src: RunResult
    trim_fraction: float = 0.1

    @property
    def only_gbps(self) -> float:
        return self.dcqcn_only.trimmed_aggregated_gbps(self.trim_fraction)

    @property
    def src_gbps(self) -> float:
        return self.dcqcn_src.trimmed_aggregated_gbps(self.trim_fraction)

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
    label: str = "",
    duration_ns: int | None = None,
) -> SchemeComparison:
    """Run DCQCN-only and DCQCN-SRC on identical workloads."""
    from dataclasses import replace

    only_cfg = replace(base_config, driver="default", src_enabled=False)
    src_cfg = replace(base_config, driver="ssq", src_enabled=True)
    only = run_testbed(trace_factory(), only_cfg, duration_ns=duration_ns)
    src = run_testbed(trace_factory(), src_cfg, tpm=tpm, duration_ns=duration_ns)
    return SchemeComparison(label=label, dcqcn_only=only, dcqcn_src=src)


def _comparison_cell(
    spec: MicroTraceSpec,
    base_config: TestbedConfig,
    tpm: ThroughputPredictionModel,
    label: str,
    duration_ns: int | None,
) -> SchemeComparison:
    """One paired-scheme run — a sweep worker cell.

    Returns a :class:`SchemeComparison` whose members are stripped to
    picklable :class:`~repro.experiments.runner.RunMeasurement` objects.
    """
    cmp = compare_schemes(
        spec.build, base_config, tpm, label=label, duration_ns=duration_ns
    )
    return SchemeComparison(
        label=cmp.label,
        dcqcn_only=cmp.dcqcn_only.measurement(),
        dcqcn_src=cmp.dcqcn_src.measurement(),
        trim_fraction=cmp.trim_fraction,
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
    ssd_config: SSDConfig | None = None,
    ssds_per_target: int = 1,
    total_read_gbps: float = 38.0,
    mean_read_bytes: float = 44 * 1024,
    mean_write_bytes: float = 23 * 1024,
    write_fraction_of_read_rate: float = 0.5,
    n_requests: int = 6000,
    seed: int = 23,
    link_rate_gbps: float = 40.0,
    congestion: "BackgroundTraffic | None | str" = "default",
    duration_ns: int | None = None,
    workers: int | None = 1,
) -> list[SchemeComparison]:
    """Reproduce Table IV: fixed total traffic, varying in-cast ratio.

    The total offered read traffic stays at ``total_read_gbps``
    regardless of the node counts; requests spread round-robin over
    targets and initiators, so per-target intensity falls as targets are
    added (the paper's WRR-degenerates-to-RR effect) and per-initiator
    inbound load falls as initiators are added (congestion relief — with
    several initiators only the episode's victim is squeezed, so most of
    the workload never sees congestion, as in the paper's 4:4 row).

    Each row is an independent paired run submitted through
    :mod:`repro.parallel`; ``workers`` fans them across processes with
    results identical to the serial order.
    """
    from repro.experiments.runner import BackgroundTraffic

    if congestion == "default":
        congestion = BackgroundTraffic(
            start_ns=8 * MS, end_ns=40 * MS, rate_gbps=10.0, n_hosts=14
        )
    read_inter_ns = mean_read_bytes / gbps_to_bytes_per_ns(total_read_gbps)
    write_inter_ns = read_inter_ns / write_fraction_of_read_rate
    spec = MicroTraceSpec(
        read=MicroWorkloadConfig(read_inter_ns, mean_read_bytes),
        write=MicroWorkloadConfig(write_inter_ns, mean_write_bytes),
        n_reads=n_requests,
        n_writes=int(n_requests * write_fraction_of_read_rate),
        seed=seed,
    )
    cells = []
    for point in points:
        cfg = TestbedConfig(
            n_initiators=point.n_initiators,
            n_targets=point.n_targets,
            ssds_per_target=ssds_per_target,
            ssd_config=ssd_config,
            link_rate_gbps=link_rate_gbps,
            link_delay_ns=US,
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
    levels: tuple[IntensityLevel, ...] = INTENSITY_LEVELS,
    ssd_config: SSDConfig | None = None,
    ssds_per_target: int = 1,
    span_ms: float = 45.0,
    seed: int = 31,
    congestion: "BackgroundTraffic | None | str" = "default",
    duration_ns: int | None = None,
    workers: int | None = 1,
) -> list[SchemeComparison]:
    """Reproduce Fig. 10: both schemes at light/moderate/heavy intensity.

    Each level runs under the same congestion episode (Fig. 10's runs all
    contain congestion events); what distinguishes the levels is whether
    the device queues are deep enough for SRC's WRR to act.  Pass
    ``congestion=None`` for congestion-free runs.  Request counts scale
    with each level's arrival rate so every level spans ``span_ms``.
    Levels fan across processes via ``workers`` (``None`` = all cores).
    """
    from repro.experiments.runner import BackgroundTraffic

    if congestion == "default":
        congestion = BackgroundTraffic(
            start_ns=8 * MS, end_ns=36 * MS, rate_gbps=10.0, n_hosts=14
        )
    cells = []
    for level in levels:
        n_requests = max(100, int(level.arrivals_per_ms * span_ms))
        spec = MicroTraceSpec(
            read=MicroWorkloadConfig(level.interarrival_ns, level.mean_size_bytes),
            write=None,
            n_reads=n_requests,
            n_writes=n_requests,
            seed=seed,
        )
        cfg = TestbedConfig(
            n_initiators=1,
            n_targets=2,
            ssds_per_target=ssds_per_target,
            ssd_config=ssd_config,
            background=congestion,
        )
        cells.append((spec, cfg, tpm, level.label, duration_ns))
    return run_cells(_comparison_cell, cells, workers=workers).results
