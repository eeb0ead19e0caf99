"""Tests of the benchmark itself, on ``--quick`` inputs.

Run with ``pytest benchmarks/perf -q`` (about two minutes).
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
sys.path.insert(0, str(HERE))

import run  # noqa: E402
from sampler import LAYERS, StackSampler, layer_of  # noqa: E402
from workloads import WORKLOADS, RepResult, Workload  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"[A-Za-z0-9_.-]+")


def run_bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(HERE.relative_to(ROOT) / "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )


@pytest.fixture(scope="module")
def quick_runs():
    """(workload, trace, seed) -> (final JSON, run record), run on demand."""
    cache: dict = {}

    def get(workload: str, trace: int, seed: int = 0):
        key = (workload, trace, seed)
        if key not in cache:
            # Traced runs measure long enough for >= 2000 stack samples.
            proc = run_bench("--workload", workload, "--seed", str(seed), "--quick",
                             "--trace", str(trace), "--seconds", "10" if trace else "0")
            assert proc.returncode == 0, proc.stderr
            lines = proc.stdout.splitlines()
            record = json.loads(next(x for x in lines if x.startswith("record "))[7:])
            cache[key] = json.loads(lines[-1]), record
        return cache[key]

    return get


def test_every_repro_module_maps_to_one_layer():
    src = ROOT / "src"
    modules = [
        ".".join(path.relative_to(src).with_suffix("").parts).removesuffix(".__init__")
        for path in (src / "repro").rglob("*.py")
    ]
    assert modules
    used = set()
    for module in modules:
        layer = layer_of(module)
        assert layer in LAYERS, module
        used.add(layer)
    assert used == set(LAYERS)
    assert layer_of("numpy.core") is None
    assert layer_of("repro.sim.checkpoint") == "sim.checkpoint"
    assert layer_of("repro.net.fluid") == "net.fluid"


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_metrics_match_benchmark_json(quick_runs, workload, trace):
    result, _ = quick_runs(workload, trace)
    declared = BENCHMARK["per_layer" if trace else "end_to_end"]
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 4
    assert {m["name"]: m["unit"] for m in declared} == {
        name: m["unit"] for name, m in result["metrics"].items()
    }
    for name, metric in result["metrics"].items():
        assert NAME.fullmatch(name), name
        assert isinstance(metric["value"], float), name
    if not trace:
        assert all(m["value"] > 0 for m in result["metrics"].values())


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_traced_run_attributes_every_sample(quick_runs, workload):
    result, record = quick_runs(workload, 1)
    metrics = result["metrics"]
    shares = {layer: metrics[f"{layer}.share"]["value"] for layer in LAYERS}
    assert sum(shares.values()) == pytest.approx(1.0, abs=0.01)
    assert record["trace_samples"] >= 2000
    assert metrics["trace_overhead_x"]["value"] > 0
    if workload != "clos_fluid":
        assert shares["net.fluid"] == 0
    if workload in ("clos_fluid", "incast_observed"):
        assert shares["ssd"] + shares["nvme"] == 0
    if workload == "tpm_training":
        assert shares["net"] == 0


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_digests_are_deterministic_and_seeded(quick_runs, workload):
    untraced = quick_runs(workload, 0)[1]["digest"]
    assert untraced is not None
    # A separate process, and sampled: the modelled outputs must not move.
    assert quick_runs(workload, 1)[1]["digest"] == untraced
    other_seed = quick_runs(workload, 0, seed=1)[1]["digest"]
    assert (other_seed != untraced) == WORKLOADS[workload].seeded


class Spin(Workload):
    """A fixed amount of pure-Python work per repetition (~0.1 s)."""

    name = "spin"

    def setup(self) -> None:
        pass

    def rep(self, index: int, timer) -> RepResult:
        with timer.leg("spin"):
            total = sum(i * i for i in range(1_000_000))
        return RepResult(sim_ms=1.0, outputs=[total])


class CostlySampler(StackSampler):
    """Spends 0.5 ms in every 1 ms sample: the work runs about 2x slower."""

    def _on_signal(self, signum, frame) -> None:
        end = time.perf_counter() + 0.0005
        while time.perf_counter() < end:
            pass
        super()._on_signal(signum, frame)


def test_trace_overhead_counts_the_sampler_cost():
    sampler = CostlySampler()
    reps = run.measure(Spin(0, quick=True), 0.0, sampler)
    assert not any(r.failures for r in reps)
    overhead = run.metric_samples(reps, sampler, [])["trace_overhead_x"][0]
    assert overhead > 1.4


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_setup_imports_only_declared_modules(workload):
    """Set-up time counts imports once, so ``modules`` must hold them all."""
    code = "\n".join([
        "import importlib, sys",
        f"sys.path[:0] = [{str(HERE)!r}, {str(ROOT / 'src')!r}]",
        "from workloads import WORKLOADS",
        f"w = WORKLOADS[{workload!r}](0, True)",
        "for m in w.modules: importlib.import_module(m)",
        "before = set(sys.modules)",
        "w.setup()",
        "w.close()",
        "print(sorted(m for m in set(sys.modules) - before if m.startswith('repro')))",
    ])
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_bare_benchmark_directory_fails_without_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for path in BENCHMARK["paths"]:
        shutil.copytree(ROOT / path, tmp_path / path,
                        ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_bench("--workload", "incast_observed", "--seconds", "1", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
