"""Fig. 5: I/O throughput across weight ratios under different workloads.

A grid of micro workloads (rows: mean inter-arrival, columns: mean
request size, matching the paper's 10–25 µs × 10–40 KB panels) is
replayed at each weight ratio; each cell yields read/write throughput
curves whose shapes the paper's observations describe:

* equality at w = 1,
* read ↓ / write ↑ with w under moderate/heavy load,
* flat curves (WRR → RR) under light load.

Every (inter-arrival, size, weight) point is an independent simulation,
so the grid fans out through :mod:`repro.parallel`; ``workers=N`` is
bit-identical to ``workers=1`` because each point regenerates its trace
from the same derived seed.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.experiments.replay import replay_on_device
from repro.nvme.ssq import SSQDriver
from repro.parallel import SweepReport, run_cells
from repro.ssd.config import SSDConfig
from repro.workloads.micro import MicroWorkloadConfig, generate_micro_trace


@dataclass
class WeightSweepCell:
    """One panel of the Fig. 5 grid."""

    interarrival_ns: float
    size_bytes: float
    weight_ratios: np.ndarray
    read_gbps: np.ndarray
    write_gbps: np.ndarray

    def read_monotone_nonincreasing(self, tolerance: float = 0.15) -> bool:
        """True when read throughput never rises by more than tolerance."""
        r = self.read_gbps
        scale = max(float(r.max()), 1e-9)
        return bool(np.all(np.diff(r) <= tolerance * scale))

    def control_effect(self) -> float:
        """Relative read-throughput reduction from w=1 to the max ratio."""
        base = float(self.read_gbps[0])
        if base <= 0:
            return 0.0
        return (base - float(self.read_gbps[-1])) / base


def _sweep_point(
    config: SSDConfig,
    interarrival_ns: float,
    size_bytes: float,
    weight_ratio: int,
    duration_ns: int,
    min_requests: int,
    seed: int,
    measure_start_fraction: float,
) -> dict:
    """One (inter-arrival, size, weight) grid point — a sweep worker cell.

    The trace seed depends only on the panel coordinates, so every
    weight ratio of a panel replays the identical trace and results do
    not depend on whether points run serially or in a pool.
    """
    wl = MicroWorkloadConfig(
        mean_interarrival_ns=interarrival_ns, mean_size_bytes=size_bytes
    )
    n_requests = max(min_requests, int(duration_ns / interarrival_ns))
    trace = generate_micro_trace(
        wl, n_reads=n_requests, n_writes=n_requests,
        # Deliberate unit mixing: hashing ns and bytes into a seed.
        seed=seed + int(interarrival_ns) % 997 + int(size_bytes) % 991,
    )
    result = replay_on_device(
        trace,
        config,
        SSQDriver(1, weight_ratio),
        drain=False,
        measure_start_fraction=measure_start_fraction,
    )
    return {
        "read": result.read_tput_gbps,
        "write": result.write_tput_gbps,
        "sim_events": result.sim_events,
    }


def run_weight_sweep_with_report(
    config: SSDConfig,
    *,
    interarrivals_ns: Sequence[float] = (10_000, 17_500, 25_000),
    sizes_bytes: Sequence[float] = (10 * 1024, 25 * 1024, 40 * 1024),
    weight_ratios: Sequence[int] = (1, 2, 4, 8, 16),
    duration_ns: int = 60_000_000,
    min_requests: int = 300,
    seed: int = 42,
    measure_start_fraction: float = 0.4,
    workers: int | None = 1,
    timeout_s: float | None = None,
    retries: int = 1,
) -> tuple[list[WeightSweepCell], SweepReport]:
    """Run the Fig. 5 grid; returns the panels plus the sweep report.

    Each cell's trace spans ``duration_ns`` so deeply saturated devices
    (whose command latencies reach several ms) are measured at steady
    state rather than during the ramp.  ``workers`` fans the grid's
    independent points across processes (``None`` = all cores) with
    bit-identical results to the serial run.
    """
    if any(w < 1 for w in weight_ratios):
        raise ValueError("weight ratios must be >= 1")
    if duration_ns <= 0:
        raise ValueError("duration must be positive")
    points = [
        (config, inter, size, w, duration_ns, min_requests, seed,
         measure_start_fraction)
        for inter in interarrivals_ns
        for size in sizes_bytes
        for w in weight_ratios
    ]
    report = run_cells(
        _sweep_point, points, workers=workers, timeout_s=timeout_s, retries=retries
    )

    cells: list[WeightSweepCell] = []
    n_w = len(weight_ratios)
    per_panel = [
        report.results[i : i + n_w] for i in range(0, len(report.results), n_w)
    ]
    panel_keys = [
        (inter, size) for inter in interarrivals_ns for size in sizes_bytes
    ]
    for (inter, size), panel in zip(panel_keys, per_panel):
        cells.append(
            WeightSweepCell(
                interarrival_ns=inter,
                size_bytes=size,
                weight_ratios=np.array(weight_ratios),
                read_gbps=np.array([p["read"] for p in panel]),
                write_gbps=np.array([p["write"] for p in panel]),
            )
        )
    return cells, report


def run_weight_sweep(
    config: SSDConfig,
    *,
    interarrivals_ns: Sequence[float] = (10_000, 17_500, 25_000),
    sizes_bytes: Sequence[float] = (10 * 1024, 25 * 1024, 40 * 1024),
    weight_ratios: Sequence[int] = (1, 2, 4, 8, 16),
    duration_ns: int = 60_000_000,
    min_requests: int = 300,
    seed: int = 42,
    measure_start_fraction: float = 0.4,
    workers: int | None = 1,
) -> list[WeightSweepCell]:
    """Run the Fig. 5 grid; returns one cell per (inter-arrival, size)."""
    cells, _ = run_weight_sweep_with_report(
        config,
        interarrivals_ns=interarrivals_ns,
        sizes_bytes=sizes_bytes,
        weight_ratios=weight_ratios,
        duration_ns=duration_ns,
        min_requests=min_requests,
        seed=seed,
        measure_start_fraction=measure_start_fraction,
        workers=workers,
    )
    return cells
