"""Fig. 5: read/write throughput vs weight ratio across the workload grid.

Paper observations to reproduce (SSD-A, inter-arrival 10–25 µs × size
10–40 KB, w = 1..):

1. read ≈ write at w = 1 (shared internal resources);
2. under moderate/heavy load, read falls and write rises as w grows;
3. under the lightest load, w has no effect (WRR degenerates to RR);
4. write throughput flattens once the write path saturates.
"""

import numpy as np
import pytest

from benchmarks.common import bench_workers, save_result
from repro.experiments.tables import format_table
from repro.experiments.weight_sweep import run_weight_sweep
from repro.sim.units import MS
from repro.ssd.config import SSD_A

#: The paper's grid (10–25 µs) plus a 60 µs row: our scaled SSD-A
#: saturates at ≈2.2 Gbps/direction under a balanced load, so the
#: genuinely light regime (where the paper observes WRR degenerating to
#: RR) sits at a longer inter-arrival than the paper's absolute values.
INTERARRIVALS = (10_000, 17_500, 25_000, 60_000)
SIZES = (10 * 1024, 25 * 1024, 40 * 1024)
RATIOS = (1, 2, 4, 8, 16)


def run_fig5():
    return run_weight_sweep(
        SSD_A,
        interarrivals_ns=INTERARRIVALS,
        sizes_bytes=SIZES,
        weight_ratios=RATIOS,
        duration_ns=50 * MS,
        workers=bench_workers(),
    )


@pytest.mark.benchmark(group="fig5")
def test_fig5_weight_sweep(benchmark):
    cells = benchmark.pedantic(run_fig5, rounds=1, iterations=1)

    rows = []
    for cell in cells:
        reads = " ".join(f"{v:5.2f}" for v in cell.read_gbps)
        writes = " ".join(f"{v:5.2f}" for v in cell.write_gbps)
        rows.append(
            [
                f"{cell.interarrival_ns/1000:.1f}us",
                f"{cell.size_bytes/1024:.0f}KB",
                reads,
                writes,
                f"{cell.control_effect()*100:.0f}%",
            ]
        )
    save_result(
        "fig5_weight_sweep",
        format_table(
            ["inter-arr", "size", f"read Gbps @ w={RATIOS}", f"write Gbps @ w={RATIOS}", "read drop"],
            rows,
            title="Fig. 5 — throughput vs weight ratio (SSD-A)",
        ),
    )

    by_key = {(c.interarrival_ns, c.size_bytes): c for c in cells}
    heavy = by_key[(10_000, 40 * 1024)]  # top-right panel
    light = by_key[(60_000, 10 * 1024)]  # bottom-left (sub-saturation) panel

    # (1) equality at w=1 under heavy load.
    assert heavy.read_gbps[0] == pytest.approx(heavy.write_gbps[0], rel=0.35)
    # (2) strong monotone control effect under heavy load.
    assert heavy.control_effect() > 0.5
    assert heavy.read_monotone_nonincreasing()
    assert heavy.write_gbps[-1] >= heavy.write_gbps[0]
    # (3) the lightest panel barely reacts to w.
    assert light.control_effect() < 0.25
    # (4) heavier workloads yield higher throughput overall.
    assert heavy.read_gbps[0] > light.read_gbps[0]
