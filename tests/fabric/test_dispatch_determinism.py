"""Dispatch-trace determinism: same seed ⇒ byte-identical event order.

Stronger than the series-level determinism test in
``tests/experiments``: here the *full dispatch trace* — every event's
time and callback site, in order — must match across runs of a small
initiator→target fabric cell, and must be unchanged when the runtime
sanitizer observes the run.
"""

from __future__ import annotations

from repro.fabric.initiator import Initiator
from repro.fabric.target import Target
from repro.net.topology import build_star
from repro.nvme.ssq import SSQDriver
from repro.sim.engine import Simulator
from repro.sim.units import KIB, MS, US
from repro.ssd.device import SSD
from repro.workloads.micro import MicroWorkloadConfig, generate_micro_trace
from tests.conftest import FAST_SSD


def run_cell(seed: int, *, sanitize: bool = False) -> list[tuple[int, str]]:
    sim = Simulator(trace=True, sanitize=sanitize)
    net = build_star(sim, ["init0", "tgt0"], rate_gbps=40.0, delay_ns=US)
    ssd = SSD(sim, FAST_SSD)
    driver = SSQDriver(read_weight=1, write_weight=2)
    Target(sim, net.hosts["tgt0"], [ssd], [driver])
    initiator = Initiator(sim, net.hosts["init0"])
    trace = generate_micro_trace(
        MicroWorkloadConfig(mean_interarrival_ns=3_000, mean_size_bytes=8 * KIB),
        n_reads=60,
        n_writes=60,
        seed=seed,
    )
    initiator.load_trace(trace, lambda _req: "tgt0")
    sim.run(until=1 * MS)
    assert initiator.reads_completed > 0 and initiator.writes_completed > 0
    return sim.dispatch_log


def as_bytes(log: list[tuple[int, str]]) -> bytes:
    return "\n".join(f"{t} {site}" for t, site in log).encode()


def test_same_seed_gives_byte_identical_trace():
    a, b = run_cell(seed=42), run_cell(seed=42)
    assert as_bytes(a) == as_bytes(b)


def test_different_seeds_give_different_traces():
    assert as_bytes(run_cell(seed=1)) != as_bytes(run_cell(seed=2))


def test_sanitizer_does_not_perturb_the_trace():
    assert as_bytes(run_cell(seed=42)) == as_bytes(run_cell(seed=42, sanitize=True))

