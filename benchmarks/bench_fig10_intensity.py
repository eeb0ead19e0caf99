"""Fig. 10: workload-intensity sensitivity (light / moderate / heavy).

Paper: 1 initiator + 2 targets (SSD-A flash arrays).  Light = 22 KB @
60/ms, moderate = 32 KB @ 80/ms, heavy = 44 KB @ 100/ms per direction.
Expected shapes:

* light: no visible difference between DCQCN-only and DCQCN-SRC
  (shallow queues, WRR → RR);
* moderate & heavy: DCQCN-SRC gains write throughput during congestion
  and the gain grows with intensity.
"""

import pytest

from benchmarks.common import bench_workers, save_result, trained_tpm
from repro.experiments.comparison import intensity_analysis
from repro.experiments.tables import format_percent, format_table
from repro.ssd.config import SSD_A


def run_fig10():
    return intensity_analysis(trained_tpm(SSD_A), workers=bench_workers())


@pytest.mark.benchmark(group="fig10")
def test_fig10_intensity(benchmark):
    comparisons = benchmark.pedantic(run_fig10, rounds=1, iterations=1)

    rows = [
        [
            c.label,
            f"{c.only_gbps:.2f}",
            f"{c.src_gbps:.2f}",
            format_percent(c.improvement),
        ]
        for c in comparisons
    ]
    save_result(
        "fig10_intensity",
        format_table(
            ["Workload", "DCQCN-only Gbps", "DCQCN-SRC Gbps", "Improvement"],
            rows,
            title="Fig. 10 — workload intensity (trimmed aggregated throughput)",
        ),
    )
    by_label = {c.label: c for c in comparisons}
    for c in comparisons:
        benchmark.extra_info[c.label] = round(c.improvement, 3)

    # Light load: schemes indistinguishable (±10%).
    assert abs(by_label["light"].improvement) < 0.10
    # Heavier load: SRC never hurts and helps at the top intensity.
    assert by_label["heavy"].improvement > -0.05
    assert by_label["heavy"].improvement >= by_label["light"].improvement - 0.05
