#!/usr/bin/env python3
"""End-to-end congestion mitigation: DCQCN-only vs DCQCN-SRC.

Runs the paper's Fig. 7 cell (``repro.experiments.comparison.FIG7_CELL``,
the same cell the benchmark suite reports): the full
disaggregated-storage testbed — one initiator, two targets with
simulated SSD-A devices, a switched 40 Gbps fabric with DCQCN
congestion control — replays a VDI-like read-intensive workload while
an in-cast congestion episode hits the initiator.  Runs the workload
twice:

* **DCQCN-only** — the stock FIFO NVMe driver; during congestion, read
  data stalls in the target TXQ, completions back up into the CQ, the
  device's command slots wedge, and writes starve (the §II-B failure);
* **DCQCN-SRC** — the SSQ driver plus the SRC controller, which hears
  DCQCN's rate cuts, consults the throughput-prediction model, and
  re-weights the device toward writes.

Prints per-ms throughput for both schemes side by side (Fig. 7's view).

Run:  python examples/congestion_mitigation.py   (about 17 s on a 2-vCPU container)
"""

from repro.core import SamplingPlan, ThroughputPredictionModel, collect_training_set
from repro.experiments.comparison import FIG7_CELL
from repro.sim.units import MS


def main() -> None:
    print("training the throughput-prediction model on SSD-A "
          "(one-time sweep over workloads × weight ratios)...")
    training = collect_training_set(FIG7_CELL.ssd_config, SamplingPlan())
    tpm = ThroughputPredictionModel().fit(training)

    print("running DCQCN-only (default FIFO NVMe driver)...")
    only = FIG7_CELL.run(FIG7_CELL.config("dcqcn"))
    print("running DCQCN-SRC (SSQ driver + SRC controller)...")
    src = FIG7_CELL.run(FIG7_CELL.config("src"), tpm=tpm)

    print()
    header = (f"{'ms':>4} | {'only rd':>7} {'only wr':>7} {'only agg':>8} | "
              f"{'src rd':>7} {'src wr':>7} {'src agg':>8}")
    print(header)
    print("-" * len(header))
    episode = FIG7_CELL.background
    for ms in range(0, FIG7_CELL.duration_ns // MS, 2):
        o_r, o_w = only.read_series.gbps[ms], only.write_series.gbps[ms]
        s_r, s_w = src.read_series.gbps[ms], src.write_series.gbps[ms]
        marker = "  <- congestion" if episode.start_ns <= ms * MS < episode.end_ns else ""
        print(f"{ms:>4} | {o_r:>7.2f} {o_w:>7.2f} {o_r + o_w:>8.2f} | "
              f"{s_r:>7.2f} {s_w:>7.2f} {s_r + s_w:>8.2f}{marker}")

    o_agg, s_agg = (sum(FIG7_CELL.window_means(run)) for run in (only, src))
    ratios = [a.weight_ratio for c in src.controllers for a in c.adjustments]
    print()
    print(f"aggregated throughput during congestion: "
          f"DCQCN-only {o_agg:.2f} Gbps vs DCQCN-SRC {s_agg:.2f} Gbps "
          f"({(s_agg / o_agg - 1) * 100:+.0f}%)")
    print(f"SRC adjustments: {len(ratios)}, weight ratios used: "
          f"{sorted(set(ratios))}")
    print(f"pause signals (CNPs at targets): only={len(only.pause_times_ns)}, "
          f"src={len(src.pause_times_ns)}")


if __name__ == "__main__":
    main()
