"""Ablations of the back-pressure chain and control parameters.

1. **TXQ depth** (DESIGN.md §4.6): the §II-B degradation runs through
   the target TXQ → CQ → command-slot chain; a larger TXQ merely delays
   the DCQCN-only write collapse, it does not avoid it.
2. **Convergence threshold τ** (Algorithm 1): smaller τ walks further
   and returns weight ratios at least as large.
"""

from dataclasses import replace

import pytest

from benchmarks.common import fig7_run, save_result, trained_tpm
from repro.core.controller import predict_weight_ratio
from repro.experiments.comparison import FIG7_CELL
from repro.experiments.tables import format_table
from repro.net.nic import NICConfig
from repro.ssd.config import SSD_A
from repro.workloads.features import extract_features
from repro.workloads.micro import MicroWorkloadConfig, generate_micro_trace

TXQ_SIZES = (512 * 1024, 2 * 1024 * 1024, 8 * 1024 * 1024)


def run_txq_ablation():
    """The Fig. 7 cell's DCQCN-only arm at each TXQ size (the 2 MiB
    default is the shared Fig. 7 run itself)."""
    dcqcn = FIG7_CELL.config("dcqcn")
    out = {}
    for txq in TXQ_SIZES:
        if txq == NICConfig().txq_capacity_bytes:
            res = fig7_run(dcqcn)
        else:
            nic = NICConfig(txq_capacity_bytes=txq)
            res = FIG7_CELL.run(replace(dcqcn, nic_config=nic))
        # Write throughput late in the congestion episode.
        late_write = float(res.write_series.gbps[30:45].mean())
        early_write = float(res.write_series.gbps[2:8].mean())
        out[txq] = (early_write, late_write)
    return out


def run_tau_ablation():
    tpm = trained_tpm(SSD_A)
    wl = MicroWorkloadConfig(10_000, 40 * 1024)
    features = extract_features(
        generate_micro_trace(wl, n_reads=3000, n_writes=3000, seed=7)
    )
    base = tpm.predict_read(features, 1)
    demanded = base / 4
    return {tau: predict_weight_ratio(tpm, demanded, features, tau=tau)
            for tau in (0.3, 0.1, 0.02)}


@pytest.mark.benchmark(group="ablation")
def test_ablation_txq_depth(benchmark):
    out = benchmark.pedantic(run_txq_ablation, rounds=1, iterations=1)
    rows = [
        [f"{txq // 1024} KiB", f"{early:.2f}", f"{late:.2f}"]
        for txq, (early, late) in out.items()
    ]
    save_result(
        "ablation_txq_depth",
        format_table(
            ["target TXQ", "write Gbps (pre)", "write Gbps (late congestion)"],
            rows,
            title="Ablation — TXQ depth vs DCQCN-only write collapse",
        ),
    )
    # Under every TXQ size the DCQCN-only writes degrade during
    # sustained congestion (the chain is delayed, not removed).
    for txq, (early, late) in out.items():
        assert late < early, (txq, early, late)
    # The smallest TXQ collapses hardest.
    smallest = out[TXQ_SIZES[0]][1]
    largest = out[TXQ_SIZES[-1]][1]
    assert smallest <= largest + 0.5


@pytest.mark.benchmark(group="ablation")
def test_ablation_tau(benchmark):
    ratios = benchmark.pedantic(run_tau_ablation, rounds=1, iterations=1)
    rows = [[f"{tau:.2f}", w] for tau, w in ratios.items()]
    save_result(
        "ablation_tau",
        format_table(
            ["tau", "chosen weight ratio"],
            rows,
            title="Ablation — Algorithm 1 convergence threshold τ (demand = base/4)",
        ),
    )
    # A looser threshold stops the walk earlier: w(0.3) <= w(0.1) <= w(0.02).
    assert ratios[0.3] <= ratios[0.1] <= ratios[0.02]
    # The mid threshold (the paper's 10%) reaches a ratio > 1.
    assert ratios[0.1] > 1
