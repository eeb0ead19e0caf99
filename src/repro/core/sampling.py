"""Training-sample collection for the throughput-prediction model.

The paper trains the TPM on "extensive experiments with various
workloads and weight ratios" (§III-B).  :func:`collect_training_set`
does exactly that: for every (workload, weight ratio) cell of a
:class:`SamplingPlan` it replays the workload on a fresh simulated SSD
through an SSQ driver and records

* **X** — the extracted Ch feature vector plus the weight ratio
  (:data:`repro.workloads.features.FEATURE_NAMES` order);
* **y** — measured (read, write) throughput in Gbps.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from repro.nvme.ssq import SSQDriver
from repro.parallel import SweepReport, run_cells
from repro.ssd.config import SSDConfig
from repro.workloads.features import FEATURE_NAMES, WorkloadFeatures, extract_features
from repro.workloads.micro import MicroWorkloadConfig, generate_micro_trace
from repro.workloads.request import IORequest, OpType
from repro.workloads.traces import Trace


@dataclass(frozen=True)
class SamplingPlan:
    """What to sweep when building a training set.

    Micro-trace grid: every combination of mean inter-arrival, mean
    request size, and weight ratio (the same axes as Fig. 5), with
    ``n_requests`` reads and writes per run.
    """

    interarrival_ns: Sequence[float] = (10_000, 15_000, 20_000, 25_000)
    size_bytes: Sequence[float] = (10 * 1024, 20 * 1024, 30 * 1024, 40 * 1024)
    weight_ratios: Sequence[int] = (1, 2, 4, 8, 16)
    #: Read:write arrival-rate mixes: the write stream's inter-arrival is
    #: the read stream's times this factor (1.0 ⇒ balanced, 2.0 ⇒
    #: read-heavy).  The paper's Ch includes the read/write ratio, so the
    #: training grid must vary it.
    read_write_mixes: Sequence[float] = (0.5, 1.0, 2.0)
    #: Trace span per sample.  Must dwarf the saturated command latency
    #: (QD × pages × pair-service / chips ≈ 6–9 ms for Table II devices)
    #: or the measurement is pure ramp transient.
    duration_ns: int = 60_000_000
    #: Floor on requests per direction for very sparse workloads.
    min_requests: int = 300
    seed: int = 0
    #: Leading fraction of each replay excluded from measurement.  Deeply
    #: saturated runs have command latencies of several ms, so the
    #: steady-state window must start well past the ramp.
    measure_start_fraction: float = 0.4

    def __post_init__(self) -> None:
        if not self.interarrival_ns or not self.size_bytes or not self.weight_ratios:
            raise ValueError("all sweep axes must be non-empty")
        if any(w < 1 for w in self.weight_ratios):
            raise ValueError("weight ratios must be >= 1 (SRC only slows reads)")
        if self.duration_ns <= 0:
            raise ValueError("duration must be positive")
        if self.min_requests < 10:
            raise ValueError("need at least 10 requests per sample")
        if not self.read_write_mixes or any(m <= 0 for m in self.read_write_mixes):
            raise ValueError("read/write mixes must be positive")

    def n_cells(self) -> int:
        return (
            len(self.interarrival_ns)
            * len(self.size_bytes)
            * len(self.weight_ratios)
            * len(self.read_write_mixes)
        )

    def requests_for(self, interarrival_ns: float) -> int:
        """Per-direction request count filling :attr:`duration_ns`."""
        return max(self.min_requests, int(self.duration_ns / interarrival_ns))


@dataclass
class TrainingSet:
    """Collected (X, y) samples with the frozen feature order."""

    X: np.ndarray
    y: np.ndarray  # columns: (read Gbps, write Gbps)
    feature_names: tuple[str, ...] = field(default=FEATURE_NAMES)

    def __post_init__(self) -> None:
        if self.X.ndim != 2 or self.y.ndim != 2:
            raise ValueError("X and y must be 2-D")
        if self.X.shape[0] != self.y.shape[0]:
            raise ValueError("X and y row counts differ")
        if self.X.shape[1] != len(self.feature_names):
            raise ValueError("X width does not match the feature order")
        if self.y.shape[1] != 2:
            raise ValueError("y must have (read, write) columns")

    def merge(self, other: "TrainingSet") -> "TrainingSet":
        if self.feature_names != other.feature_names:
            raise ValueError("cannot merge sets with different feature orders")
        return TrainingSet(
            X=np.vstack([self.X, other.X]), y=np.vstack([self.y, other.y])
        )

    def __len__(self) -> int:
        return self.X.shape[0]


#: A trace as immutable per-request columns, in trace order:
#: ``(arrival_ns, op, lba, size_bytes)``.
TraceColumns = tuple[tuple[int, ...], tuple[OpType, ...], tuple[int, ...], tuple[int, ...]]


def sample_trace(
    trace: Trace,
    config: SSDConfig,
    weight_ratio: int,
    *,
    window_ns: int | None = None,
    measure_start_fraction: float = 0.4,
) -> tuple[np.ndarray, np.ndarray]:
    """One training sample: replay ``trace`` at ``weight_ratio``.

    Returns (x_row, y_row) with x in FEATURE_NAMES order and y =
    (read Gbps, write Gbps).  Like the sweep, it replays fresh copies
    of the requests, so ``trace`` is left unstamped.
    """
    if weight_ratio < 1:
        raise ValueError(f"weight ratio must be >= 1, got {weight_ratio}")
    sample = _sample_cell(
        config,
        _trace_columns(trace),
        extract_features(trace, window_ns=window_ns),
        weight_ratio,
        measure_start_fraction,
    )
    return sample["x"], sample["y"]


def _trace_columns(trace: Trace) -> TraceColumns:
    requests = trace.requests
    return (
        tuple(r.arrival_ns for r in requests),
        tuple(r.op for r in requests),
        tuple(r.lba for r in requests),
        tuple(r.size_bytes for r in requests),
    )


def _sample_cell(
    config: SSDConfig,
    columns: TraceColumns,
    features: WorkloadFeatures,
    weight_ratio: int,
    measure_start_fraction: float,
) -> dict:
    """One training sample — a sweep worker cell (module-level so the
    pool can pickle it).

    The trace arrives as columns, built once per sweep for all of its
    weight ratios, and is replayed as fresh requests in trace order:
    ``req_id`` only breaks arrival ties, so the order is the source's,
    and no replay stamps requests another cell (or the caller) holds.
    """
    # Imported here rather than at module level: repro.experiments depends
    # on repro.core (the runner wires SRC controllers), so the reverse
    # edge must stay lazy.
    from repro.experiments.replay import replay_on_device

    trace = Trace(IORequest(*row) for row in zip(*columns))
    result = replay_on_device(
        trace,
        config,
        SSQDriver(read_weight=1, write_weight=weight_ratio),
        drain=False,
        measure_start_fraction=measure_start_fraction,
    )
    return {
        "x": features.with_weight(weight_ratio),
        "y": np.array([result.read_tput_gbps, result.write_tput_gbps]),
        "sim_events": result.sim_events,
    }


def _micro_trace(
    plan: SamplingPlan, interarrival_ns: float, size_bytes: float, mix: float
) -> Trace:
    """The plan's micro trace for one (inter-arrival, size, mix) point.

    Seeded from the plan (``hash`` of numbers is process-stable), so
    every process builds the identical trace.
    """
    read_wl = MicroWorkloadConfig(
        mean_interarrival_ns=interarrival_ns, mean_size_bytes=size_bytes
    )
    write_wl = MicroWorkloadConfig(
        mean_interarrival_ns=interarrival_ns * mix, mean_size_bytes=size_bytes
    )
    return generate_micro_trace(
        read_wl,
        write_wl,
        n_reads=plan.requests_for(interarrival_ns),
        n_writes=plan.requests_for(interarrival_ns * mix),
        seed=plan.seed + hash((interarrival_ns, size_bytes, mix)) % 10_000,
    )


def _sweep_cells(
    config: SSDConfig,
    plan: SamplingPlan | None,
    traces: Sequence[Trace],
    ratios: Sequence[int],
    measure_start_fraction: float,
) -> list[tuple]:
    """Every cell of a sweep, in sample order.

    The plan's micro grid (inter-arrival, size, mix, ratio) comes
    first, then each extra trace at ``ratios``.  Each distinct trace is
    built, and its features extracted, once; its cells share them.
    """
    cells: list[tuple] = []
    if plan is not None:
        for inter in plan.interarrival_ns:
            for size in plan.size_bytes:
                for mix in plan.read_write_mixes:
                    trace = _micro_trace(plan, inter, size, mix)
                    cells += _trace_cells(
                        config, trace, plan.weight_ratios, measure_start_fraction
                    )
    for trace in traces:
        cells += _trace_cells(config, trace, ratios, measure_start_fraction)
    return cells


def _trace_cells(
    config: SSDConfig, trace: Trace, ratios: Sequence[int], measure_start_fraction: float
) -> list[tuple]:
    """One cell per weight ratio, sharing ``trace``'s columns and features."""
    columns = _trace_columns(trace)
    features = extract_features(trace)
    return [(config, columns, features, w, measure_start_fraction) for w in ratios]


def collect_training_set_with_report(
    config: SSDConfig,
    plan: SamplingPlan | None = None,
    *,
    traces: Sequence[Trace] | None = None,
    weight_ratios: Sequence[int] | None = None,
    progress: Callable[[int, int], None] | None = None,
    workers: int | None = 1,
    retries: int = 0,
) -> tuple[TrainingSet, SweepReport]:
    """Build a training set and return the sweep report.

    The report's ``sim_events`` is the simulator events summed over
    every cell.

    Parameters
    ----------
    config:
        SSD to characterise.
    plan:
        Micro-trace sweep (default :class:`SamplingPlan`); pass ``None``
        with explicit ``traces`` to skip micro samples entirely.
    traces:
        Extra traces (e.g. MMPP synthetics); each is replayed at every
        ratio in ``weight_ratios`` (default: the plan's ratios).
    progress:
        Optional ``(done, total)`` callback.
    workers:
        Fan the independent (workload, ratio) cells across this many
        processes (``None`` = all cores); results are bit-identical to
        the serial run because every cell replays its own fresh requests
        rebuilt from the same trace columns.  The sweep never stamps
        the requests of ``traces``.
    retries:
        Must be 0: a deterministic cell that raises is never rerun.
    """
    # Kept for benchmarks/perf, which passes retries=0; drop it with the
    # next benchmark-defining change (ROADMAP item 1).
    if retries != 0:
        raise ValueError(f"retries must be 0 (cells are never rerun), got {retries}")
    if plan is None and traces is None:
        plan = SamplingPlan()
    ratios = list(weight_ratios or (plan.weight_ratios if plan else (1, 2, 4, 8)))
    mf = plan.measure_start_fraction if plan else 0.4

    report = run_cells(
        _sample_cell,
        _sweep_cells(config, plan, traces or [], ratios, mf),
        workers=workers,
        progress=progress,
    )
    xs = [r["x"] for r in report.results]
    ys = [r["y"] for r in report.results]
    report.sim_events = sum(r["sim_events"] for r in report.results)
    return TrainingSet(X=np.vstack(xs), y=np.vstack(ys)), report


def collect_training_set(
    config: SSDConfig,
    plan: SamplingPlan | None = None,
    *,
    traces: Sequence[Trace] | None = None,
    weight_ratios: Sequence[int] | None = None,
    progress: Callable[[int, int], None] | None = None,
    workers: int | None = 1,
) -> TrainingSet:
    """Build a training set (see :func:`collect_training_set_with_report`)."""
    training, _ = collect_training_set_with_report(
        config,
        plan,
        traces=traces,
        weight_ratios=weight_ratios,
        progress=progress,
        workers=workers,
    )
    return training
