"""End-to-end chaos cells: deterministic, never wedged, failure-recorded."""

from __future__ import annotations

from repro.experiments.faults import (
    POLICIES,
    fault_matrix,
    run_chaos_cell,
    run_chaos_matrix,
)
from repro.sim.units import MS


def test_fixed_seed_chaos_cell_replays_identically():
    # The acceptance cell: loss + flap + die at a fixed seed must finish
    # with zero wedged I/Os and identical measurements across two runs.
    a = run_chaos_cell("chaos", "static", seed=11, duration_ns=20 * MS)
    b = run_chaos_cell("chaos", "static", seed=11, duration_ns=20 * MS)
    assert a == b  # frozen dataclass: field-for-field equality
    assert a.wedged == 0
    assert a.faults_fired == len(fault_matrix(20 * MS, seed=11)["chaos"].specs)
    assert a.packets_lost > 0 or a.packets_dropped_down > 0
    assert a.retransmits > 0


def test_every_request_accounted_for():
    o = run_chaos_cell("chaos", "src", seed=4, duration_ns=20 * MS)
    # completed + failed + wedged covers every issued request; wedged
    # must be zero with the recovery path armed.
    assert o.wedged == 0
    assert o.completed + o.failed > 0
    assert o.failed <= o.completed // 10  # faults hurt, they don't kill


def test_matrix_records_failures_instead_of_aborting():
    outcomes, report = run_chaos_matrix(
        ("baseline",), POLICIES, seed=0, duration_ns=20 * MS, workers=1
    )
    assert len(report.failures) == 0
    assert len(outcomes) == len(POLICIES)
    assert all(o is not None and o.wedged == 0 for o in outcomes)
    baseline = outcomes[0]
    assert baseline is not None
    assert baseline.retries_sent == 0 and baseline.retransmits == 0
