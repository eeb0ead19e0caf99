"""Every testbed world replays bit-identically in fresh interpreters
whose hash seed, clock and global RNGs all differ.

One world per :func:`~repro.experiments.runner.run_testbed` driver mode
(FIFO, SSQ with the SRC controller, block layer with its rate
controller), each carrying the stuck-I/O watchdog that ``run_testbed``
installs.  Each runs to ``T1`` under a background congestion episode,
is saved with :func:`repro.sim.checkpoint.save`, and is continued
in-process to ``T2`` as the reference, which must match ``GOLDEN``.

Two child interpreters then run concurrently, one per entry of
``CHILDREN``.  Each perturbs what a replay must not depend on: a fixed
``PYTHONHASHSEED`` of its own (set and ``str``-keyed dict orders), the
``time`` module's clocks shifted by its own offset (its calendar
functions and ``datetime.datetime.now``/``today`` read the shifted
clock too), and the global
``random`` and ``np.random`` states reseeded to its own value.  Each
child builds the ``FRESH`` worlds from t=0, which must match
``GOLDEN``, and then loads every checkpoint, continues it to ``T2`` and
reports its digest and the :mod:`repro.sim.serial` counter positions,
which must match the reference.  A salted iteration order, a wall-clock
read or an out-of-band random draw on any path these worlds take
therefore moves a digest in at least one child on every run, instead of
on some hash seeds only.

The children must be fresh processes: module-level state and
``SerialCounter`` rewinds can only diverge there, and an unpicklable
callback anywhere in the world graph fails the save itself.

The children also check that dispatch does no I/O.  A
:func:`sys.addaudithook` hook records every ``open``, ``os.*``,
``subprocess.*``, ``socket.*`` and ``shutil.*`` audit event raised
while a continued world runs, and a child's stdout must be its one JSON
line, so a ``print`` inside a callback fails the test too.
"""

from __future__ import annotations

import hashlib
import json
import os
import pickle
import subprocess
import sys
from pathlib import Path

from repro.experiments.runner import BackgroundTraffic, TestbedConfig, run_testbed
from repro.sim import checkpoint as ck
from repro.sim.serial import snapshot_counters
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
}


#: ``world_digest`` of each uninterrupted world at ``T2``.  A unit slip
#: on any path these worlds exercise (link and DCQCN rates, background
#: message gaps, SSD timing) moves a digest; re-pin only for a
#: deliberate model change.
GOLDEN: dict[str, dict[str, object]] = {
    "default": {
        "now": 6000000,
        "events_dispatched": 73725,
        "read_deliveries": (
            "0e0fd8630c7d26a0ee7cbc2b20296310badc04b19e4632647497443dad5c8d35"
        ),
        "write_completions": (
            "abae226f35140c25547b8dba4ad0e3bda7c7324244aa830dc97965a28b2e4510"
        ),
        "cnp_log": (
            "35dac6db79f8cd921cebd5f18ce781d0de3ea6f7f6ac051ad9a090fb9826883d"
        ),
        "adjustments": (
            "4f53cda18c2baa0c0354bb5f9a3ecbe5ed12ab4d8e11ba873c2f11161202b945"
        ),
    },
    "ssq+src": {
        "now": 6000000,
        "events_dispatched": 73485,
        "read_deliveries": (
            "c2b58b1cb033e1395ddab7056e5896d569e2517fdb6b6c590e23dec0c160d097"
        ),
        "write_completions": (
            "461809c9cba7e6263ca48af7be39d56c5f9525179fceceaf7082dead9ec65031"
        ),
        "cnp_log": (
            "b2136fb3d6c3add19ba8945588d5953b201535ca6d478b84c17e3d3a5db4cfc8"
        ),
        "adjustments": (
            "a108ef6c675aeb40c0f6f37744f379a8a1346fe345a75ca24302c214d84194cd"
        ),
    },
    "block+src": {
        "now": 6000000,
        "events_dispatched": 74051,
        "read_deliveries": (
            "6c40ed7f9a04db539ddc6b91e2c72afdb0618ff135fc6bca2e3c29e18c9d107d"
        ),
        "write_completions": (
            "7d962a67f6dad83cb1d44e2672bd7ea560ea1f4f9d50f663e6a7cbdaca31dd9a"
        ),
        "cnp_log": (
            "6e3ed06be6b1c28fd07ee7b42c2fc4527e64c0fa1fa15670f6e4486c1990a39b"
        ),
        "adjustments": (
            "636c5bd61b366a4c75901715703d0318fd0b9673e22d6ed77adbbc68a9597887"
        ),
    },
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
    }
    digest: dict[str, object] = {
        "now": result.sim.now,
        "events_dispatched": result.sim.events_dispatched,
    }
    for name, value in parts.items():
        digest[name] = hashlib.sha256(repr(value).encode()).hexdigest()
    return digest


#: One child interpreter per entry, run concurrently: its string-hash
#: seed, the offset added to every ``time`` clock (seconds; an odd
#: number of seconds apart, years from the real time) and the seed of
#: the global ``random`` and ``np.random`` states.
CHILDREN: tuple[dict[str, object], ...] = (
    {"hash_seed": "0", "clock_offset_s": 10**6, "global_seed": 1},
    {"hash_seed": "1", "clock_offset_s": 10**8 + 1, "global_seed": 2},
)

#: Worlds each child also builds from t=0 and checks against ``GOLDEN``.
FRESH = ("ssq+src",)

CHILD = """
import datetime, json, random, sys, time
args = json.loads(sys.argv[1])
offset_s = args["clock_offset_s"]
for clock in ("time", "monotonic", "perf_counter"):
    setattr(time, clock, lambda f=getattr(time, clock): f() + offset_s)
for clock in ("time_ns", "monotonic_ns", "perf_counter_ns"):
    setattr(time, clock, lambda f=getattr(time, clock): f() + offset_s * 10**9)
# The calendar functions read the C clock when given no time; give them
# the shifted one.  date.today() already calls time.time().
for clock in ("localtime", "gmtime", "ctime"):
    setattr(time, clock, lambda secs=None, f=getattr(time, clock): f(
        time.time() if secs is None else secs))
time.strftime = lambda fmt, t=None, f=time.strftime: f(
    fmt, time.localtime() if t is None else t)
class ShiftedDatetime(datetime.datetime):
    @classmethod
    def now(cls, tz=None):
        return cls.fromtimestamp(time.time(), tz)
    @classmethod
    def today(cls):
        return cls.fromtimestamp(time.time())
datetime.datetime = ShiftedDatetime
import numpy as np
random.seed(args["global_seed"])
np.random.seed(args["global_seed"])
import pickle
from repro.experiments.runner import run_testbed
from repro.sim import checkpoint as ck
from repro.sim.serial import snapshot_counters
from tests.experiments.test_world_checkpoints import (
    T1, T2, WORLDS, _trace, world_digest,
)
with open(args["tpm"], "rb") as f:
    tpm = pickle.load(f)
fresh = {}
for name in args["fresh"]:
    result = run_testbed(_trace(), WORLDS[name], tpm=tpm, duration_ns=T1)
    result.sim.run(until=T2)
    fresh[name] = world_digest(result)
IO_ROOTS = ("os", "subprocess", "socket", "shutil")
running = None
io = []
def audit(event, detail):
    if running is not None and (
        event == "open" or event.split(".")[0] in IO_ROOTS
    ):
        io.append([running, event, repr(detail)[:200]])
sys.addaudithook(audit)
continued = {}
for name, path in args["paths"].items():
    sim, result = ck.load(path)
    running = name
    sim.run(until=T2)
    running = None
    continued[name] = {**world_digest(result), "counters": snapshot_counters()}
print(json.dumps({"fresh": fresh, "continued": continued, "io": io}))
"""


def test_every_world_continues_identically_in_a_fresh_process(tmp_path, tiny_tpm):
    paths: dict[str, str] = {}
    expected: dict[str, dict[str, object]] = {}
    for name, config in WORLDS.items():
        result = run_testbed(_trace(), config, tpm=tiny_tpm, duration_ns=T1)
        path = tmp_path / f"{name}.ckpt"
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
        digest = world_digest(result)
        assert digest == GOLDEN[name], name
        # Counter positions depend on what this process ran before, so
        # they are compared with the children, never pinned.
        expected[name] = {**digest, "counters": snapshot_counters()}

    tpm_path = tmp_path / "tpm.pkl"
    tpm_path.write_bytes(pickle.dumps(tiny_tpm))
    repo_root = Path(__file__).resolve().parents[2]
    procs = []
    for child in CHILDREN:
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join([str(repo_root / "src"), str(repo_root)])
        env["PYTHONHASHSEED"] = child["hash_seed"]
        args = {**child, "tpm": str(tpm_path), "fresh": FRESH, "paths": paths}
        procs.append(subprocess.Popen(
            [sys.executable, "-c", CHILD, json.dumps(args)],
            env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        ))
    try:
        outputs = [proc.communicate(timeout=300) for proc in procs]
    finally:
        for proc in procs:
            proc.kill()
            proc.wait()

    for child, proc, (stdout, stderr) in zip(CHILDREN, procs, outputs):
        label = f"PYTHONHASHSEED={child['hash_seed']}"
        assert proc.returncode == 0, (label, stderr)
        # One JSON line and nothing else: a callback's print() lands here.
        assert stdout.endswith("\n") and stdout.count("\n") == 1, (
            label, stdout[:2000]
        )
        report = json.loads(stdout)
        assert report["io"] == [], label
        for name in FRESH:
            assert report["fresh"][name] == GOLDEN[name], (label, name)
        for name in WORLDS:
            assert report["continued"][name] == expected[name], (label, name)
