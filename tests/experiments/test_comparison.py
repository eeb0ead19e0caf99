"""Scheme-comparison helpers (Table IV / Fig 10 drivers), scaled down."""

import pytest

from repro.experiments.comparison import (
    FIG7_CELL,
    INTENSITY_LEVELS,
    TABLE4_POINTS,
    IncastPoint,
    IntensityLevel,
    SchemeComparison,
    arm_config,
    compare_schemes,
    incast_analysis,
    intensity_analysis,
)
from repro.experiments.runner import TestbedConfig
from repro.workloads.micro import MicroWorkloadConfig, generate_micro_trace
from tests.conftest import FAST_SSD


def test_paper_constants():
    assert [p.label for p in TABLE4_POINTS] == ["2:1", "3:1", "4:1", "4:4"]
    assert [l.label for l in INTENSITY_LEVELS] == ["light", "moderate", "heavy"]
    heavy = INTENSITY_LEVELS[2]
    assert heavy.mean_size_bytes == 44 * 1024
    assert heavy.arrivals_per_ms == 100.0
    assert heavy.interarrival_ns == pytest.approx(10_000)


def test_incast_point_label():
    assert IncastPoint(3, 2).label == "3:2"


def test_compare_schemes_runs_both(tiny_tpm):
    from repro.sim.units import MS

    def make_trace():
        wl = MicroWorkloadConfig(15_000, 8 * 1024)
        return generate_micro_trace(wl, n_reads=400, n_writes=400, seed=9)

    cfg = TestbedConfig(
        n_initiators=1, n_targets=2, ssd_config=FAST_SSD, driver="ssq"
    )
    # Bound the run so trimming does not discard the whole active span.
    only, src = compare_schemes(make_trace, cfg, tiny_tpm, duration_ns=7 * MS)
    # The only driver swap is default vs ssq+SRC.
    from repro.nvme.driver import DefaultNvmeDriver
    from repro.nvme.ssq import SSQDriver

    assert isinstance(only.targets[0].drivers[0], DefaultNvmeDriver)
    assert isinstance(src.targets[0].drivers[0], SSQDriver)
    assert src.controllers
    cmp = SchemeComparison("t", only.trimmed_aggregated_gbps(), src.trimmed_aggregated_gbps())
    assert cmp.only_gbps > 0
    assert cmp.src_gbps > 0
    # The improvement accessor is consistent.
    assert cmp.improvement == pytest.approx(
        (cmp.src_gbps - cmp.only_gbps) / cmp.only_gbps
    )


def test_improvement_handles_zero_baseline():
    cmp = SchemeComparison(label="z", only_gbps=0.0, src_gbps=0.0)
    assert cmp.improvement == 0.0


def test_incast_row_is_pinned(tiny_tpm):
    """One Table IV row, exactly.  Its read inter-arrival comes from
    the 38 Gbps -> bytes/ns conversion inside ``incast_analysis``, so
    a dropped conversion there moves both throughputs."""
    from repro.sim.units import MS

    (row,) = incast_analysis(
        tiny_tpm,
        points=(IncastPoint(2, 1),),
        ssd_config=FAST_SSD,
        n_requests=400,
        duration_ns=6 * MS,
    )
    assert row.label == "2:1"
    assert row.only_gbps == 20.982442666666667
    assert row.src_gbps == 21.386581333333336


def test_intensity_levels_are_pinned(tiny_tpm):
    """The three Fig. 10 levels, exactly.  10 ms runs reach past the
    8 ms episode start, so SRC acts and the episode's timing, each
    level's request count and inter-arrival all reach the numbers."""
    from repro.sim.units import MS

    rows = intensity_analysis(tiny_tpm, ssd_config=FAST_SSD, duration_ns=10 * MS)
    assert [(r.label, r.only_gbps, r.src_gbps) for r in rows] == [
        ("light", 19.27168, 19.296256),
        ("moderate", 20.688896, 20.549632),
        ("heavy", 21.745664, 21.684224),
    ]


def test_arms_map_to_target_designs():
    base = TestbedConfig(n_targets=3)
    assert [
        (c.driver, c.src_enabled, c.n_targets)
        for c in (arm_config(base, arm) for arm in ("dcqcn", "src", "block"))
    ] == [("default", False, 3), ("ssq", True, 3), ("block", True, 3)]


def test_benchmark_fig7_pair_runs_the_shared_cell(monkeypatch):
    """``benchmarks/perf``'s full-size ``Fig7Pair`` is :data:`FIG7_CELL`
    at the benchmark's seed: episode, SSD and arms (the testbed
    configs), run length, window, request counts and trace.  Its TPM
    comes from the benchmark's own, smaller training grid; training is
    stubbed here."""
    import importlib.util
    import sys
    from dataclasses import replace
    from pathlib import Path

    from repro.core.tpm import ThroughputPredictionModel

    path = Path(__file__).resolve().parents[2] / "benchmarks" / "perf" / "workloads.py"
    spec = importlib.util.spec_from_file_location("_perf_workloads", path)
    workloads = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, workloads)  # for its dataclasses
    spec.loader.exec_module(workloads)
    monkeypatch.setattr("repro.core.sampling.collect_training_set", lambda *a, **k: None)
    monkeypatch.setattr(ThroughputPredictionModel, "fit", lambda self, training: self)

    pair = workloads.Fig7Pair(seed=5, quick=False)
    pair.setup()
    cell = FIG7_CELL
    assert pair.duration_ns == cell.duration_ns
    assert pair.window == cell.window_ns
    assert (pair.n_reads, pair.n_writes) == (cell.trace.n_reads, cell.trace.n_writes)
    assert {leg: config for leg, (config, _) in pair.legs.items()} == {
        "dcqcn": cell.config("dcqcn"),
        "src": cell.config("src"),
    }

    def columns(trace):
        return [(r.arrival_ns, r.op, r.lba, r.size_bytes) for r in trace.requests]

    assert columns(pair._trace()) == columns(replace(cell.trace, seed=5).build())
