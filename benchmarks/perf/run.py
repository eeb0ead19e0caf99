"""Repository benchmark: host wall-seconds per simulated millisecond.

Run from the checkout root::

    python3 benchmarks/perf/run.py --workload fig7_pair --seed 0 --seconds 15 --trace 0
    python3 benchmarks/perf/run.py --trace 1      # every workload, one process each

One run of one workload, in one single-threaded process:

1. set-up: the workload's imports, once, then input generation and
   (``fig7_pair``) the TPM fit, three times.  ``setup_s`` is the import
   time plus the median input time;
2. one warm-up repetition, whose output digest is the reference;
3. timed repetitions, each after ``gc.collect()``, until ``--seconds``
   have elapsed (at least three).

Host times are taken with a host-speed probe running and reported at
the nominal host speed (``hostprobe.py``).  Every repetition's outputs
are checked and digested; a repetition that raises, fails a check or
changes its digest counts as failed.  The report lists every metric with
its unit, median, quartiles and sample count, then a run record, and
ends with one JSON line::

    {"correct": true, "attempted": 5, "failed": 0, "metrics": {...}}

``--trace 1`` prints the per-layer metrics instead of the end-to-end
ones: timed repetitions alternate between untraced and sampled (see
``sampler.py``).  The exit code is 0 only when every check passed.
"""

from __future__ import annotations

import time

_T0 = time.perf_counter()  # set-up time counts from here

import argparse  # noqa: E402
import gc  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from contextlib import contextmanager, nullcontext  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402
from pathlib import Path  # noqa: E402

from hostprobe import HostProbe  # noqa: E402
from sampler import LAYERS, StackSampler  # noqa: E402
from workloads import WORKLOADS, RepResult, checkout_root  # noqa: E402

ROOT = checkout_root()
SRC = ROOT / "src"
DEFAULT_SECONDS = 15
MIN_REPS = 3
#: Set-ups per run; ``setup_s`` takes the median.
SETUP_REPEATS = 3

END_TO_END = {
    "wall_s_per_sim_ms": "s/sim-ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}
#: Work counters read from the model after each repetition (0 where a
#: workload does not exercise the layer or its return value does not
#: expose the counter).  All but the two leg-time ratios repeat exactly.
COUNTERS = {
    "sim.events_per_sim_ms": "events/sim-ms",
    "sim.checkpoint.count": "count",
    "sim.checkpoint.bytes": "bytes",
    "sim.checkpoint.overhead_x": "x",
    "net.pkts_per_sim_ms": "pkts/sim-ms",
    "net.drops": "count",
    "net.ecn_marks_per_sim_ms": "marks/sim-ms",
    "net.dcqcn.cnps_per_sim_ms": "cnps/sim-ms",
    "net.fluid.updates_per_sim_ms": "updates/sim-ms",
    "net.fluid.event_reduction_x": "x",
    "fabric.requests": "count",
    "fabric.completed_frac": "fraction",
    "fabric.retries": "count",
    "fabric.failed": "count",
    "nvme.submitted": "count",
    "nvme.consistency_redirects": "count",
    "ssd.commands_completed": "count",
    "ssd.cmt_hit_ratio": "fraction",
    "ssd.cache_read_hit_ratio": "fraction",
    "ssd.gc_invocations": "count",
    "core.adjustments": "count",
    "workloads.requests": "count",
    "analysis.events_checked_frac": "fraction",
    "analysis.sanitize_overhead_x": "x",
}
PER_LAYER = {
    **{f"{layer}.share": "fraction" for layer in LAYERS},
    **{f"{layer}.host_s_per_sim_ms": "s/sim-ms" for layer in LAYERS},
    "trace_overhead_x": "x",
    **COUNTERS,
}


# -- one repetition -----------------------------------------------------------

class Timer:
    """Host time of one repetition, taken only inside :meth:`leg` blocks.

    The host probe runs inside every leg, and its own time is taken out.
    """

    def __init__(self, sampler: StackSampler | None) -> None:
        self.sampler = sampler
        self.probe = HostProbe()
        self.legs: dict[str, float] = {}

    @contextmanager
    def leg(self, name: str):
        with self.sampler if self.sampler is not None else nullcontext():
            t0 = time.perf_counter()
            probed_s = self.probe.spent_s
            try:
                with self.probe:
                    yield
            finally:
                wall_s = time.perf_counter() - t0 - (self.probe.spent_s - probed_s)
                self.legs[name] = self.legs.get(name, 0.0) + wall_s

    @property
    def wall_s(self) -> float:
        return sum(self.legs.values())


@dataclass
class Rep:
    """One finished repetition as the harness saw it."""

    traced: bool
    timer: Timer
    result: RepResult | None = None
    failures: list[str] = field(default_factory=list)

    @property
    def wall_s_per_sim_ms(self) -> float:
        """As measured on this host, unnormalized."""
        return self.timer.wall_s / self.result.sim_ms

    @property
    def per_sim_ms(self) -> float:
        return self.timer.probe.normalize(self.wall_s_per_sim_ms)


def run_rep(workload, index: int, sampler, reference: str | None) -> Rep:
    gc.collect()
    rep = Rep(traced=sampler is not None, timer=Timer(sampler))
    try:
        rep.result = workload.rep(index, rep.timer)
    except Exception:  # a failed repetition is counted, not fatal
        rep.failures.append(traceback.format_exc())
        return rep
    rep.failures.extend(rep.result.failures)
    if reference is not None and rep.result.digest != reference:
        rep.failures.append(f"output digest {rep.result.digest} != warm-up {reference}")
    return rep


# -- one run ------------------------------------------------------------------

def timed_setup(workload) -> list[tuple[float, float]]:
    """(normalized, raw) set-up samples, ``SETUP_REPEATS`` of them.

    Each is the seconds from interpreter start to the workload's modules
    imported, plus one ``workload.setup()``; the imports happen once.
    """
    probe = HostProbe()
    with probe:
        for module in workload.modules:
            importlib.import_module(module)
    raw_imports = time.perf_counter() - _T0 - probe.spent_s
    imports = probe.normalize(raw_imports)
    samples = []
    for i in range(SETUP_REPEATS):
        if i:
            workload.close()
            gc.collect()
        timer = Timer(None)
        with timer.leg("setup"):
            workload.setup()
        samples.append((imports + timer.probe.normalize(timer.wall_s),
                        raw_imports + timer.wall_s))
    return samples


def measure(workload, seconds: float, sampler: StackSampler | None) -> list[Rep]:
    """Warm-up, then timed repetitions until ``seconds`` have elapsed.

    With a sampler, every second timed repetition is sampled.
    """
    reps = [run_rep(workload, 0, None, None)]
    if reps[0].result is None:
        return reps
    reference = reps[0].result.digest
    min_reps = MIN_REPS if sampler is None else 2 * MIN_REPS
    start = time.perf_counter()
    k = 0
    while k < min_reps or time.perf_counter() - start < seconds:
        traced = sampler is not None and k % 2 == 1
        reps.append(run_rep(workload, k + 1, sampler if traced else None, reference))
        k += 1
    return reps


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """(q1, median, q3) as ``statistics.quantiles(n=4)`` gives them."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def metric_samples(reps: list[Rep], sampler, setup) -> dict[str, list[float]]:
    """Metric name -> its samples (the reported value is their median)."""
    untraced = [r for r in reps[1:] if not r.traced]
    if sampler is None:
        return {
            "wall_s_per_sim_ms": [r.per_sim_ms for r in untraced],
            "setup_s": [normalized for normalized, _ in setup],
            "peak_rss_mb": [resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024],
        }
    base = statistics.median(r.per_sim_ms for r in untraced)
    # Unnormalized: the sampler slows the host-speed probe as much as the
    # workload, so normalizing would divide the trace's cost back out.
    # Traced and untraced repetitions alternate, so host drift hits both.
    traced_raw = statistics.median(r.wall_s_per_sim_ms for r in reps[1:] if r.traced)
    base_raw = statistics.median(r.wall_s_per_sim_ms for r in untraced)
    shares = sampler.shares()
    samples = {
        name: [float(r.result.counters.get(name, 0.0)) for r in untraced]
        for name in COUNTERS
    }
    for layer in LAYERS:
        samples[f"{layer}.share"] = [shares[layer]]
        samples[f"{layer}.host_s_per_sim_ms"] = [shares[layer] * base]
    samples["trace_overhead_x"] = [traced_raw / base_raw]
    return samples


def git_sha() -> str:
    if not (ROOT / ".git").exists():
        return "unknown (not a git checkout)"
    try:
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10, check=True)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return out.stdout.strip()


def run_record(args, workload, reps: list[Rep], setup, sampler) -> dict:
    import numpy

    timed = [r for r in reps[1:] if r.result is not None]
    return {
        "workload": workload.name,
        "seed": args.seed if workload.seeded else "ignored: the model is seed-free",
        "trace": int(args.trace),
        "quick": args.quick,
        "git_sha": git_sha(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "reps": {"warm_up": 1, "timed": len(timed), "traced": sum(r.traced for r in timed)},
        "trace_samples": sampler.total if sampler is not None else 0,
        "digest": reps[0].result.digest if reps[0].result else None,
        "host_probe_s": [statistics.fmean(r.timer.probe.times) for r in timed],
        "raw_wall_s_per_sim_ms": [r.wall_s_per_sim_ms for r in timed],
        "raw_setup_s": [raw for _, raw in setup],
    }


def run_one(args) -> int:
    workload = WORKLOADS[args.workload](args.seed, args.quick)
    try:
        setup = timed_setup(workload)
        sampler = StackSampler() if args.trace else None
        reps = measure(workload, args.seconds, sampler)
    finally:
        workload.close()

    units = PER_LAYER if args.trace else END_TO_END
    failed = [i for i, r in enumerate(reps) if r.failures]
    for i in failed:
        print(f"FAILED repetition {i}:", *reps[i].failures, sep="\n  ", file=sys.stderr)
    complete = all(r.result is not None for r in reps)
    samples = metric_samples(reps, sampler, setup) if complete else {}
    correct = not failed and set(samples) == set(units)

    print(f"workload {workload.name}: {len(reps) - 1} timed repetitions + 1 warm-up")
    print(f"{'metric':<34} {'unit':<15} {'median':>13} {'q1':>13} {'q3':>13} {'n':>3}")
    for name, values in samples.items():
        q1, median, q3 = quartiles(values)
        print(f"{name:<34} {units[name]:<15} {median:>13.6g} {q1:>13.6g} {q3:>13.6g} "
              f"{len(values):>3}")
    print("record", json.dumps(run_record(args, workload, reps, setup, sampler)))
    result = {
        "correct": correct,
        "attempted": len(reps),
        "failed": len(failed),
        "metrics": {
            name: {"value": statistics.median(values), "unit": units[name]}
            for name, values in samples.items()
        },
    }
    print(json.dumps(result))
    return 0 if correct else 1


def run_all(args) -> int:
    """Every workload in its own fresh interpreter, one after another."""
    status = 0
    for name in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(int(args.trace))]
        if args.quick:
            cmd.append("--quick")
        print(f"== {name}", flush=True)
        status |= subprocess.run(cmd, timeout=900).returncode
    return 1 if status else 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS),
                        help="run one workload (default: all, each in its own process)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=DEFAULT_SECONDS,
                        help="measure for this long (at least three repetitions)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: per-layer metrics from a sampled run")
    parser.add_argument("--quick", action="store_true", help="small inputs, for tests")
    args = parser.parse_args(argv)

    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no repro sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import repro

    if not Path(repro.__file__).resolve().is_relative_to(SRC.resolve()):
        print(f"perfbench: imported repro from {repro.__file__}, not {SRC}", file=sys.stderr)
        return 2
    # The benchmark fixes its own sanitizer legs; an inherited mode would
    # silently turn every simulator into a sanitizing one.
    os.environ.pop("REPRO_SANITIZE", None)
    if args.workload is None:
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
