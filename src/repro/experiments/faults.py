"""Chaos scenario: SRC vs static weights under a deterministic fault matrix.

The paper's evaluation assumes a healthy fabric; this experiment asks
what the same testbed does when the fabric misbehaves.  Each cell of
the matrix runs one :class:`~repro.faults.plan.FaultPlan` — packet
loss/corruption bursts, a link flap, a die failure, or all of them at
once — against both contention policies (static SSQ weights vs the SRC
block-layer controller), with the full recovery path armed: go-back-N
retransmission at the NICs, command timeout + bounded retry at the
initiators, and the stuck-I/O watchdog so a wedged cell fails loudly
instead of reporting fictional throughput.

Reported per cell: goodput (successfully completed bytes over the
run), failed/wedged request counts, p99 end-to-end latency of the
successes, retry/retransmit counters, and recovery time (first fault
activation → last completion of a request that needed a retry).

Everything is seeded: the same ``(cell, policy, seed, duration)`` tuple
replays the identical fault pattern, so a chaos cell is as citable as a
clean one.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

import numpy as np

from repro.experiments.runner import TestbedConfig, run_testbed
from repro.fabric.initiator import RetryPolicy
from repro.faults import (
    ChannelBrownout,
    DieFailure,
    FaultPlan,
    FaultSpec,
    LinkFlap,
    LossBurst,
    NicStall,
    SlowDie,
)
from repro.net.nic import NICConfig
from repro.net.reliability import ReliabilityConfig
from repro.parallel.pool import SweepReport, run_cells
from repro.sim.units import KIB, MS, US
from repro.workloads.micro import MicroWorkloadConfig, generate_micro_trace

#: Contention policies compared in every cell: static SSQ weights vs
#: the SRC block-layer rate controller (no TPM required).
POLICIES = ("static", "src")


def _spec_start_ns(spec: FaultSpec) -> int:
    if isinstance(spec, LossBurst | NicStall | SlowDie | ChannelBrownout):
        return spec.start_ns
    if isinstance(spec, LinkFlap):
        return spec.down_ns
    return spec.at_ns  # DieFailure


def fault_matrix(duration_ns: int, seed: int = 0) -> dict[str, FaultPlan]:
    """The standard chaos cells, with fault windows scaled to the run.

    ``baseline`` is the control cell (empty plan, recovery machinery
    armed but idle); ``chaos`` combines every fault class at once.
    """
    if duration_ns < 10 * MS:
        raise ValueError("chaos cells need at least 10 ms of simulated time")
    q = duration_ns // 10
    loss: tuple[FaultSpec, ...] = (
        # Read-data path (target uplink) and the initiator downlink.
        LossBurst("tgt0->sw0", 2 * q, 6 * q, loss_prob=0.02),
        LossBurst("sw0->init0", 3 * q, 6 * q, loss_prob=0.01, corrupt_prob=0.005),
    )
    flap: tuple[FaultSpec, ...] = (
        LinkFlap("sw0->tgt0", 3 * q, 3 * q + 500 * US),
    )
    die: tuple[FaultSpec, ...] = (
        # tgt0's first SSD loses a die; retries can land on ssd1.
        DieFailure("tgt0/ssd0", chip=0, at_ns=2 * q),
    )
    return {
        "baseline": FaultPlan(seed=seed),
        "loss": FaultPlan(seed=seed, specs=loss),
        "flap": FaultPlan(seed=seed, specs=flap),
        "die": FaultPlan(seed=seed, specs=die),
        "chaos": FaultPlan(seed=seed, specs=loss + flap + die),
    }


@dataclass(frozen=True)
class ChaosOutcome:
    """Picklable measurements of one (cell, policy) chaos run."""

    cell: str
    policy: str
    completed: int
    failed: int
    wedged: int
    goodput_gbps: float
    p99_read_us: float
    p99_write_us: float
    recovery_us: float
    retries_sent: int
    timeouts_fired: int
    error_completions: int
    retransmits: int
    packets_lost: int
    packets_corrupted: int
    packets_dropped_down: int
    faults_fired: int
    sim_events: int

    def as_dict(self) -> dict:
        return asdict(self)


def _p99_us(latencies_ns: list[int]) -> float:
    if not latencies_ns:
        return 0.0
    return float(np.percentile(np.asarray(latencies_ns, dtype=np.float64), 99)) / 1e3


def run_chaos_cell(
    cell: str,
    policy: str,
    seed: int = 0,
    duration_ns: int = 20 * MS,
) -> ChaosOutcome:
    """Run one chaos cell.  Module-level so sweeps can pool it."""
    if policy not in POLICIES:
        raise ValueError(f"unknown policy {policy!r}; choose from {POLICIES}")
    plan = fault_matrix(duration_ns, seed=seed)[cell]

    # Moderate in-cast load: enough to keep DCQCN active, light enough
    # that loss-burst cells converge well inside the drain grace.
    stream = MicroWorkloadConfig(mean_interarrival_ns=20_000, mean_size_bytes=16 * KIB)
    n_per_stream = max(50, int(duration_ns // (2 * stream.mean_interarrival_ns)))
    trace = generate_micro_trace(
        stream, n_reads=n_per_stream, n_writes=n_per_stream, seed=seed
    )

    config = TestbedConfig(
        n_initiators=1,
        n_targets=2,
        ssds_per_target=2,
        driver="block" if policy == "src" else "ssq",
        src_enabled=policy == "src",
        nic_config=NICConfig(reliability=ReliabilityConfig(seed=seed)),
        retry_policy=RetryPolicy(timeout_ns=4 * MS, max_retries=4),
        faults=plan,
        watchdog=True,
    )
    result = run_testbed(
        trace, config, duration_ns=duration_ns, drain_outstanding_ns=60 * MS
    )

    requests = list(trace)
    ok = [r for r in requests if r.complete_ns >= 0 and not r.error]
    failed = [r for r in requests if r.complete_ns >= 0 and r.error]
    wedged = sum(i.outstanding() for i in result.initiators)
    goodput_gbps = (
        sum(r.size_bytes for r in ok) * 8.0 / result.duration_ns
        if result.duration_ns
        else 0.0
    )

    first_fault = min((_spec_start_ns(s) for s in plan.specs), default=-1)
    affected = [r for r in requests if r.complete_ns >= 0 and (r.retries or r.error)]
    recovery_us = (
        (max(r.complete_ns for r in affected) - first_fault) / 1e3
        if affected and first_fault >= 0
        else 0.0
    )

    retransmits = 0
    for nic in result.network.hosts.values():
        for flow in nic.flows.values():
            if flow._rel is not None:
                retransmits += flow._rel.retransmits
    injector = result.injector
    assert injector is not None  # config.faults is always set here
    loss = injector.loss_summary()

    return ChaosOutcome(
        cell=cell,
        policy=policy,
        completed=len(ok),
        failed=len(failed),
        wedged=wedged,
        goodput_gbps=goodput_gbps,
        p99_read_us=_p99_us([r.total_latency_ns for r in ok if r.is_read]),
        p99_write_us=_p99_us([r.total_latency_ns for r in ok if not r.is_read]),
        recovery_us=recovery_us,
        retries_sent=sum(i.retries_sent for i in result.initiators),
        timeouts_fired=sum(i.timeouts_fired for i in result.initiators),
        error_completions=sum(t.error_completions for t in result.targets),
        retransmits=retransmits,
        packets_lost=sum(v["lost"] for v in loss.values()),
        packets_corrupted=sum(v["corrupted"] for v in loss.values()),
        packets_dropped_down=sum(v["dropped_down"] for v in loss.values()),
        faults_fired=injector.faults_fired,
        sim_events=result.sim.events_dispatched,
    )


def run_chaos_matrix(
    cells: tuple[str, ...] | None = None,
    policies: tuple[str, ...] = POLICIES,
    *,
    seed: int = 0,
    duration_ns: int = 20 * MS,
    workers: int | None = 1,
) -> tuple[list[ChaosOutcome | None], SweepReport]:
    """Run the full (cell × policy) grid; failed cells are recorded.

    Returns the outcomes in grid order (``None`` where a cell failed —
    e.g. the watchdog caught a wedge) plus the sweep report whose
    ``failures`` list carries the structured failure records.
    """
    if cells is None:
        cells = tuple(fault_matrix(duration_ns, seed=seed))
    grid = [(c, p, seed, duration_ns) for c in cells for p in policies]
    report = run_cells(run_chaos_cell, grid, workers=workers, on_error="record")
    return list(report.results), report
