"""Table IV: in-cast ratio analysis.

Paper (fixed ~38 Gbps total traffic):

    ratio 2:1 → +33% | 3:1 → +17% | 4:1 → +5% | 4:4 → +3%

Expected shape: SRC's improvement is largest with few targets (deep
per-target queues keep WRR effective) and fades as targets spread the
load (WRR → RR) or as extra initiators relieve the congestion.
"""

import pytest

from benchmarks.common import bench_workers, save_result, trained_tpm
from repro.experiments.comparison import incast_analysis
from repro.experiments.tables import format_percent, format_table
from repro.ssd.config import SSD_A

PAPER = {"2:1": 0.33, "3:1": 0.17, "4:1": 0.05, "4:4": 0.03}


def run_table4():
    return incast_analysis(trained_tpm(SSD_A), workers=bench_workers())


@pytest.mark.benchmark(group="table4")
def test_table4_incast_ratio(benchmark):
    comparisons = benchmark.pedantic(run_table4, rounds=1, iterations=1)

    rows = [
        [
            c.label,
            f"{c.src_gbps:.2f}",
            f"{c.only_gbps:.2f}",
            format_percent(c.improvement),
            format_percent(PAPER[c.label]),
        ]
        for c in comparisons
    ]
    save_result(
        "table4_incast_ratio",
        format_table(
            ["In-cast", "DCQCN-SRC", "DCQCN-Only", "Improvement", "Paper"],
            rows,
            title="Table IV — in-cast ratio analysis (trimmed aggregated Gbps)",
        ),
    )
    by_label = {c.label: c for c in comparisons}
    for c in comparisons:
        benchmark.extra_info[c.label] = round(c.improvement, 3)

    # Shape: the few-target point shows the clearest gain, and the
    # relieved 4:4 point shows (near) none.
    assert by_label["2:1"].improvement > 0.05
    assert by_label["2:1"].improvement > by_label["4:4"].improvement
    assert by_label["4:4"].improvement < 0.15
