"""Figs. 7 & 8: runtime throughput and pause number, DCQCN vs DCQCN-SRC.

The §IV-D experiment: a VDI-like read-intensive workload on 1 initiator
+ 2 targets (SSD-A) with a congestion episode.  Expected shapes:

* read throughput under DCQCN-SRC tracks DCQCN-only (both pinned to the
  demanded sending rate during congestion) — Fig. 7;
* DCQCN-only aggregated throughput collapses during congestion (writes
  starve behind stuck reads) while DCQCN-SRC keeps writes flowing —
  Fig. 7;
* the pause number spikes during the congestion episode and SRC does
  not increase it — Fig. 8.
"""

import numpy as np
import pytest

from benchmarks.common import fig7_run, save_result
from repro.experiments.comparison import FIG7_CELL
from repro.experiments.tables import format_table
from repro.sim.units import MS

CONGESTION_START = FIG7_CELL.background.start_ns
CONGESTION_END = FIG7_CELL.background.end_ns


def run_fig7_pair():
    """Both schemes on identical workloads (session-cached for Fig. 8)."""
    return fig7_run(FIG7_CELL.config("dcqcn")), fig7_run(FIG7_CELL.config("src"))


@pytest.mark.benchmark(group="fig7")
def test_fig7_runtime_throughput(benchmark):
    only, src = benchmark.pedantic(run_fig7_pair, rounds=1, iterations=1)

    stats = {
        "DCQCN-only": FIG7_CELL.window_means(only),
        "DCQCN-SRC": FIG7_CELL.window_means(src),
    }
    rows = [
        [name, f"{r:.2f}", f"{w:.2f}", f"{r + w:.2f}"]
        for name, (r, w) in stats.items()
    ]
    save_result(
        "fig7_runtime_throughput",
        format_table(
            ["Scheme", "Read Gbps", "Write Gbps", "Aggregate Gbps"],
            rows,
            title="Fig. 7 — throughput during the congestion window (20–45 ms, SSD-A)",
        )
        + "\n\nread series (Gbps per ms, DCQCN-only):\n"
        + np.array2string(np.round(only.read_series.gbps[:60], 1), max_line_width=100)
        + "\nread series (Gbps per ms, DCQCN-SRC):\n"
        + np.array2string(np.round(src.read_series.gbps[:60], 1), max_line_width=100)
        + "\nwrite series (Gbps per ms, DCQCN-only):\n"
        + np.array2string(np.round(only.write_series.gbps[:60], 1), max_line_width=100)
        + "\nwrite series (Gbps per ms, DCQCN-SRC):\n"
        + np.array2string(np.round(src.write_series.gbps[:60], 1), max_line_width=100),
    )

    r_only, w_only = stats["DCQCN-only"]
    r_src, w_src = stats["DCQCN-SRC"]
    # Read throughput aligns across schemes (both network-pinned).
    assert r_src == pytest.approx(r_only, rel=0.5)
    # SRC sustains writes that DCQCN-only starves.
    assert w_src > w_only * 1.3
    # And the aggregate improves.
    assert (r_src + w_src) > (r_only + w_only)


@pytest.mark.benchmark(group="fig8")
def test_fig8_pause_number(benchmark):
    only, src = benchmark.pedantic(run_fig7_pair, rounds=1, iterations=1)
    t_only, c_only = only.pause_counts_per_ms()
    t_src, c_src = src.pause_counts_per_ms()

    def phase_counts(counts):
        before = counts[: CONGESTION_START // MS].sum()
        during = counts[CONGESTION_START // MS : CONGESTION_END // MS].sum()
        after = counts[CONGESTION_END // MS :].sum()
        return before, during, after

    rows = []
    for name, counts in (("DCQCN-only", c_only), ("DCQCN-SRC", c_src)):
        b, d, a = phase_counts(counts)
        rows.append([name, int(b), int(d), int(a), int(counts.sum())])
    save_result(
        "fig8_pause_number",
        format_table(
            ["Scheme", "pre-congestion", "during", "post", "total CNPs"],
            rows,
            title="Fig. 8 — pause number (CNPs at targets) per phase",
        ),
    )

    # The pause number spikes during the congestion episode...
    b, d, a = phase_counts(c_only)
    dur_ms = (CONGESTION_END - CONGESTION_START) // MS
    assert d / dur_ms > (b + 1) / (CONGESTION_START // MS)
    # ...and SRC does not make congestion worse.
    assert phase_counts(c_src)[1] <= phase_counts(c_only)[1] * 1.5
