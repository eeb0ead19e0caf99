"""Clos-scale dual-fidelity cell: smoke, determinism, sanitized run."""

import pytest

from repro.experiments.clos_scale import (
    ClosScaleConfig,
    build_clos_scale_cell,
    run_clos_scale_cell,
)
from repro.sim import checkpoint
from repro.sim.units import MS, US

#: Small enough for CI (<1 s), large enough that both domains engage:
#: fluid tenants congest the leaf mesh and foreground flows cross it.
SMALL = dict(
    n_pods=2,
    tors_per_pod=2,
    hosts_per_tor=4,
    fluid_hosts_per_tor=2,
    n_tenants=16,
    n_foreground_flows=4,
    duration_ns=5 * MS,
)


def test_small_cell_runs_and_reduces_events():
    result = run_clos_scale_cell(ClosScaleConfig(**SMALL))
    assert result.fluid_flows == 16
    assert result.fluid_updates == 50  # 5 ms / 100 us
    assert result.fluid_bytes_served > 0
    assert result.foreground_messages_delivered > 0
    # Even the small cell beats the all-packet projection comfortably.
    assert result.event_reduction > 5.0


def test_small_cell_outputs_are_pinned():
    """The fluid solver's float operations and their order are part of
    the model: any change to them moves these exact figures."""
    result = run_clos_scale_cell(ClosScaleConfig(**SMALL))
    assert result.events_dispatched == 18_278
    assert result.fluid_bytes_served == 30239755.361532986
    assert result.foreground_bytes_received == 8_912_896
    assert result.foreground_messages_delivered == 136
    assert result.projected_packet_events == 96_014


def test_restored_cell_finishes_like_the_uninterrupted_run(tmp_path):
    """Checkpoint mid-interval, restore, finish: the fluid domain's
    arrays and flow views pickle into the same continuation."""
    plain = run_clos_scale_cell(ClosScaleConfig(**SMALL))
    cell = build_clos_scale_cell(ClosScaleConfig(**SMALL))
    cell.sim.run(until=SMALL["duration_ns"] // 2 + 37 * US)
    path = tmp_path / "mid.ckpt"
    checkpoint.save(path, cell.sim, cell)
    sim, restored = checkpoint.load(path)
    assert restored.domain.flows[0]._domain is restored.domain
    sim.run(until=restored.until_ns)
    resumed = restored.result(sim.events_dispatched, plain.wall_s)
    assert resumed == plain


def test_cell_is_deterministic():
    a = run_clos_scale_cell(ClosScaleConfig(**SMALL))
    b = run_clos_scale_cell(ClosScaleConfig(**SMALL))
    assert a.events_dispatched == b.events_dispatched
    assert a.fluid_bytes_served == b.fluid_bytes_served
    assert a.foreground_bytes_received == b.foreground_bytes_received
    assert a.projected_packet_events == b.projected_packet_events


def test_sanitized_stride_cell_runs_violation_free():
    """stride:64 sanitizer (fluid sweeps included) stays silent."""
    result = run_clos_scale_cell(
        ClosScaleConfig(**SMALL, sanitize="stride:64")
    )
    assert result.fluid_bytes_served > 0
    plain = run_clos_scale_cell(ClosScaleConfig(**SMALL))
    # The sanitizer only observes: same events, same outputs.
    assert result.events_dispatched == plain.events_dispatched
    assert result.foreground_bytes_received == plain.foreground_bytes_received


def test_config_validation():
    with pytest.raises(ValueError):
        ClosScaleConfig(fluid_hosts_per_tor=16, hosts_per_tor=16)
    with pytest.raises(ValueError):
        ClosScaleConfig(duration_ns=0)
    with pytest.raises(ValueError):
        ClosScaleConfig(n_foreground_flows=0)
