"""§V extension: block-layer rate control vs SSQ/WRR (active-model SRC).

The paper's conclusion proposes re-implementing the control as a
block-layer I/O scheduler.  This benchmark runs the shared Fig. 7 cell
(the DCQCN-only and SRC rows are the Fig. 7 runs) under three target
designs:

* DCQCN-only (stock FIFO driver) — the degraded baseline;
* DCQCN-SRC with SSQ/WRR (the paper's design);
* DCQCN + block-layer throttle (the §V alternative: the demanded rate
  is applied directly above a FIFO driver, no TPM).

Expected shape: both control designs rescue write throughput relative
to the baseline; the block-layer variant needs no prediction model but
stages throttled reads above the driver instead of re-weighting the
device.
"""

import pytest

from benchmarks.common import fig7_run, save_result
from repro.experiments.comparison import FIG7_CELL
from repro.experiments.tables import format_table

DESIGNS = {"DCQCN-only": "dcqcn", "SSQ/WRR SRC": "src", "block-layer SRC": "block"}


def run_comparison():
    return {name: fig7_run(FIG7_CELL.config(arm)) for name, arm in DESIGNS.items()}


@pytest.mark.benchmark(group="extension")
def test_extension_block_layer(benchmark):
    runs = benchmark.pedantic(run_comparison, rounds=1, iterations=1)
    stats = {name: FIG7_CELL.window_means(r) for name, r in runs.items()}
    rows = [
        [name, f"{rd:.2f}", f"{wr:.2f}", f"{rd + wr:.2f}"]
        for name, (rd, wr) in stats.items()
    ]
    save_result(
        "extension_block_layer",
        format_table(
            ["Target design", "Read Gbps", "Write Gbps", "Aggregate"],
            rows,
            title="§V extension — block-layer throttle vs SSQ/WRR "
            "(congestion window means)",
        ),
    )
    base_w = stats["DCQCN-only"][1]
    # Both control designs rescue writes relative to the baseline.
    assert stats["SSQ/WRR SRC"][1] > base_w * 1.3
    assert stats["block-layer SRC"][1] > base_w * 1.3
    # And improve the aggregate.
    base_agg = sum(stats["DCQCN-only"])
    assert sum(stats["SSQ/WRR SRC"]) > base_agg
    assert sum(stats["block-layer SRC"]) > base_agg
