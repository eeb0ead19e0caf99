"""Fig. 5 weight-sweep harness tests (scaled down)."""

import numpy as np
import pytest

from repro.experiments.weight_sweep import WeightSweepCell, run_weight_sweep
from tests.conftest import FAST_SSD


def run_small():
    return run_weight_sweep(
        FAST_SSD,
        interarrivals_ns=(2_000, 40_000),
        sizes_bytes=(8 * 1024,),
        weight_ratios=(1, 2, 4, 8),
        duration_ns=4_000_000,
        min_requests=100,
    )


def test_grid_shape():
    cells = run_small()
    assert len(cells) == 2
    for cell in cells:
        assert cell.weight_ratios.tolist() == [1, 2, 4, 8]
        assert cell.read_gbps.shape == (4,)


def test_heavy_cell_shows_control_effect():
    cells = run_small()
    heavy = cells[0]  # 2 µs inter-arrival saturates FAST_SSD
    assert heavy.control_effect() > 0.3
    assert heavy.read_monotone_nonincreasing()
    # Write throughput does not drop as w grows.
    assert heavy.write_gbps[-1] >= heavy.write_gbps[0] * 0.9


def test_light_cell_insensitive_to_w():
    cells = run_small()
    light = cells[1]  # 40 µs inter-arrival: queues stay shallow
    assert light.control_effect() < 0.1


def test_equality_at_w1_under_balanced_saturation():
    cells = run_small()
    heavy = cells[0]
    assert heavy.read_gbps[0] == pytest.approx(heavy.write_gbps[0], rel=0.3)


def test_monotone_helper():
    cell = WeightSweepCell(
        interarrival_ns=1,
        size_bytes=1,
        weight_ratios=np.array([1, 2]),
        read_gbps=np.array([1.0, 2.0]),
        write_gbps=np.array([1.0, 1.0]),
    )
    assert not cell.read_monotone_nonincreasing(tolerance=0.05)
    assert cell.control_effect() == pytest.approx(-1.0)


def test_control_effect_zero_base():
    cell = WeightSweepCell(
        interarrival_ns=1,
        size_bytes=1,
        weight_ratios=np.array([1]),
        read_gbps=np.array([0.0]),
        write_gbps=np.array([0.0]),
    )
    assert cell.control_effect() == 0.0


def test_validation():
    with pytest.raises(ValueError):
        run_weight_sweep(FAST_SSD, weight_ratios=(0,))
    with pytest.raises(ValueError):
        run_weight_sweep(FAST_SSD, duration_ns=0)


def test_parallel_matches_serial_bit_for_bit():
    # Same root seed ⇒ identical per-cell outputs, pool or not: the
    # determinism guarantee every figure sweep relies on.
    kw = dict(
        interarrivals_ns=(2_000, 40_000),
        sizes_bytes=(8 * 1024,),
        weight_ratios=(1, 4),
        duration_ns=2_000_000,
        min_requests=100,
    )
    serial_cells = run_weight_sweep(FAST_SSD, workers=1, **kw)
    pool_cells = run_weight_sweep(FAST_SSD, workers=2, **kw)
    assert len(serial_cells) == len(pool_cells) == 2
    for a, b in zip(serial_cells, pool_cells):
        assert np.array_equal(a.read_gbps, b.read_gbps)
        assert np.array_equal(a.write_gbps, b.write_gbps)
