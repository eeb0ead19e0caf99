"""Every testbed world restores in a fresh interpreter and continues
exactly as the uninterrupted run.

One world per :func:`~repro.experiments.runner.run_testbed` driver mode
(FIFO, SSQ with the SRC controller, block layer with its rate
controller) plus the chaos configuration of
:func:`~repro.experiments.faults.run_chaos_cell` (faults, go-back-N
reliability, command retry, stuck-I/O watchdog) with both of its
policies.  Each runs to ``T1`` under a background congestion episode,
is saved with :func:`repro.sim.checkpoint.save`, and is continued
in-process to ``T2`` as the reference.  One child interpreter loads
every checkpoint, continues each to ``T2`` and prints its digest.

The child must be a fresh process: module-level state and
``SerialCounter`` rewinds can only diverge there, and an unpicklable
callback anywhere in the world graph fails the save itself.

The child also checks that dispatch does no I/O.  A
:func:`sys.addaudithook` hook records every ``open``, ``os.*``,
``subprocess.*``, ``socket.*`` and ``shutil.*`` audit event raised
while ``sim.run(until=T2)`` runs, and the child's stdout must be its
one JSON line, so a ``print`` inside a callback fails the test too.
"""

from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

from repro.experiments.faults import fault_matrix
from repro.experiments.runner import BackgroundTraffic, TestbedConfig, run_testbed
from repro.fabric.initiator import RetryPolicy
from repro.net.nic import NICConfig
from repro.net.reliability import ReliabilityConfig
from repro.sim import checkpoint as ck
from repro.sim.units import KIB, MS, US
from repro.workloads.micro import MicroWorkloadConfig, generate_micro_trace
from tests.conftest import FAST_SSD

T1 = 3 * MS
T2 = 6 * MS

#: Strong enough that the SRC controller of the ``ssq+src`` world
#: picks ratios above 1 on both sides of the checkpoint.
BACKGROUND = BackgroundTraffic(
    start_ns=1 * MS, end_ns=5 * MS, rate_gbps=40.0, n_hosts=12
)


def _chaos(policy: str) -> TestbedConfig:
    """``run_chaos_cell``'s configuration, with ``chaos``'s faults
    spread over a 10 ms plan so they straddle the checkpoint."""
    return TestbedConfig(
        n_initiators=1,
        n_targets=2,
        ssds_per_target=2,
        ssd_config=FAST_SSD,
        driver="block" if policy == "src" else "ssq",
        src_enabled=policy == "src",
        nic_config=NICConfig(reliability=ReliabilityConfig(seed=0)),
        retry_policy=RetryPolicy(timeout_ns=4 * MS, max_retries=4),
        faults=fault_matrix(10 * MS, seed=0)["chaos"],
        watchdog=True,
        background=BACKGROUND,
    )


WORLDS: dict[str, TestbedConfig] = {
    "default": TestbedConfig(
        ssd_config=FAST_SSD, driver="default", background=BACKGROUND
    ),
    "ssq+src": TestbedConfig(
        ssd_config=FAST_SSD,
        driver="ssq",
        src_enabled=True,
        src_window_ns=2 * MS,
        src_min_interval_ns=500 * US,
        background=BACKGROUND,
    ),
    "block+src": TestbedConfig(
        ssd_config=FAST_SSD,
        driver="block",
        src_enabled=True,
        src_min_interval_ns=500 * US,
        background=BACKGROUND,
    ),
    "chaos/static": _chaos("static"),
    "chaos/src": _chaos("src"),
}


def _trace():
    stream = MicroWorkloadConfig(mean_interarrival_ns=5_000, mean_size_bytes=8 * KIB)
    return generate_micro_trace(stream, n_reads=1200, n_writes=1200, seed=3)


def world_digest(result) -> dict[str, object]:
    """What a continued world measured, free of process-global ids."""
    parts = {
        "read_deliveries": [i.read_deliveries for i in result.initiators],
        "write_completions": [t.write_completions for t in result.targets],
        "cnp_log": [t.nic.cnp_log for t in result.targets],
        "adjustments": [
            [(a.time_ns, a.weight_ratio, a.demanded_rate_gbps) for a in c.adjustments]
            for c in result.controllers
        ],
        "failures": [
            [(t, r.arrival_ns, r.lba, r.size_bytes, int(r.op), r.error)
             for t, r in i.failures]
            for i in result.initiators
        ],
    }
    digest: dict[str, object] = {
        "now": result.sim.now,
        "events_dispatched": result.sim.events_dispatched,
    }
    for name, value in parts.items():
        digest[name] = hashlib.sha256(repr(value).encode()).hexdigest()
    return digest


def test_every_world_continues_identically_in_a_fresh_process(tmp_path, tiny_tpm):
    paths: dict[str, str] = {}
    expected: dict[str, dict[str, object]] = {}
    for name, config in WORLDS.items():
        result = run_testbed(_trace(), config, tpm=tiny_tpm, duration_ns=T1)
        path = tmp_path / f"{name.replace('/', '-')}.ckpt"
        ck.save(path, result.sim, result)
        at_save = result.sim.events_dispatched
        result.sim.run(until=T2)
        assert result.sim.events_dispatched > at_save  # the world was live
        assert any(t.nic.cnp_log for t in result.targets)  # and congested
        if config.src_enabled:
            assert any(c.adjustments for c in result.controllers)
        if name == "ssq+src":  # SRC moved the weights on both sides of T1
            raised = [a.time_ns for c in result.controllers
                      for a in c.adjustments if a.weight_ratio > 1]
            assert min(raised) < T1 < max(raised)
        paths[name] = str(path)
        expected[name] = world_digest(result)

    script = (
        "import json, sys\n"
        "from repro.sim import checkpoint as ck\n"
        "from tests.experiments.test_world_checkpoints import T2, world_digest\n"
        "IO_ROOTS = ('os', 'subprocess', 'socket', 'shutil')\n"
        "running = None\n"
        "io = []\n"
        "def audit(event, args):\n"
        "    if running is not None and (\n"
        "        event == 'open' or event.split('.')[0] in IO_ROOTS\n"
        "    ):\n"
        "        io.append([running, event, repr(args)[:200]])\n"
        "sys.addaudithook(audit)\n"
        "out = {}\n"
        "for name, path in json.loads(sys.argv[1]).items():\n"
        "    sim, result = ck.load(path)\n"
        "    running = name\n"
        "    sim.run(until=T2)\n"
        "    running = None\n"
        "    out[name] = world_digest(result)\n"
        "print(json.dumps({'digests': out, 'io': io}))\n"
    )
    repo_root = Path(__file__).resolve().parents[2]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(repo_root / "src"), str(repo_root)])
    done = subprocess.run(
        [sys.executable, "-c", script, json.dumps(paths)],
        env=env, capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stderr
    # One JSON line and nothing else: a callback's print() lands here.
    assert done.stdout.endswith("\n") and done.stdout.count("\n") == 1, (
        done.stdout[:2000]
    )
    report = json.loads(done.stdout)
    assert report["io"] == []
    for name in WORLDS:
        assert report["digests"][name] == expected[name], name

