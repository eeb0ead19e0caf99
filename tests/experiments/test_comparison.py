"""Scheme-comparison helpers (Table IV / Fig 10 drivers), scaled down."""

import pytest

from repro.experiments.comparison import (
    INTENSITY_LEVELS,
    TABLE4_POINTS,
    IncastPoint,
    IntensityLevel,
    SchemeComparison,
    compare_schemes,
    incast_analysis_with_report,
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
    cmp = compare_schemes(make_trace, cfg, tiny_tpm, label="t", duration_ns=7 * MS)
    # The only driver swap is default vs ssq+SRC.
    from repro.nvme.driver import DefaultNvmeDriver
    from repro.nvme.ssq import SSQDriver

    assert isinstance(cmp.dcqcn_only.targets[0].drivers[0], DefaultNvmeDriver)
    assert isinstance(cmp.dcqcn_src.targets[0].drivers[0], SSQDriver)
    assert cmp.dcqcn_src.controllers
    assert cmp.only_gbps > 0
    assert cmp.src_gbps > 0
    # The improvement accessor is consistent.
    assert cmp.improvement == pytest.approx(
        (cmp.src_gbps - cmp.only_gbps) / cmp.only_gbps
    )


def test_improvement_handles_zero_baseline():
    class FakeRun:
        def trimmed_aggregated_gbps(self, f):
            return 0.0

    cmp = SchemeComparison(label="z", dcqcn_only=FakeRun(), dcqcn_src=FakeRun())
    assert cmp.improvement == 0.0


def test_incast_row_is_pinned(tiny_tpm):
    """One Table IV row, exactly.  Its read inter-arrival is derived
    from ``total_read_gbps`` (a Gbps -> bytes/ns boundary), so a
    dropped conversion there moves both throughputs."""
    from repro.sim.units import MS

    (row,), report = incast_analysis_with_report(
        tiny_tpm,
        points=(IncastPoint(2, 1),),
        ssd_config=FAST_SSD,
        n_requests=400,
        duration_ns=6 * MS,
    )
    assert not report.failures
    assert row.label == "2:1"
    assert row.only_gbps == 20.982442666666667
    assert row.src_gbps == 21.386581333333336
