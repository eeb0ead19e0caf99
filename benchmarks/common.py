"""Shared benchmark infrastructure.

* :func:`save_result` — persist a reproduced table under
  ``benchmarks/results/`` and queue it for the terminal summary;
* :func:`save_perf` / :func:`bench_workers` — sweep perf counters
  (events/sec, per-cell wall time, worker utilisation) persisted as
  JSON so BENCH_*.json runs can track the parallel-runner speedup;
* :func:`trained_tpm` — session-cached TPM training per SSD model (the
  expensive sweep runs once even when several figure benches need it);
* workload factories matching the §IV descriptions (VDI-like trace, the
  Fig. 10 intensity levels).
"""

from __future__ import annotations

import json
import os
from pathlib import Path

from repro.core.sampling import SamplingPlan, collect_training_set_with_report
from repro.core.tpm import ThroughputPredictionModel
from repro.parallel import SweepReport
from repro.sim.units import MS
from repro.ssd.config import SSDConfig
from repro.workloads.micro import MicroWorkloadConfig, generate_micro_trace
from repro.workloads.traces import Trace

RESULTS_DIR = Path(__file__).parent / "results"

#: (name, text) pairs replayed by the terminal summary hook.
SESSION_RESULTS: list[tuple[str, str]] = []

#: name -> perf counters, replayed by the terminal summary hook.
SESSION_PERF: dict[str, dict] = {}


def bench_workers() -> int:
    """Worker count for benchmark sweeps.

    ``REPRO_BENCH_WORKERS`` overrides (``1`` forces the serial path —
    results are bit-identical either way); the default uses every core.
    """
    env = os.environ.get("REPRO_BENCH_WORKERS")
    return int(env) if env else (os.cpu_count() or 1)


def save_result(name: str, text: str) -> None:
    """Write a reproduced table to disk and queue it for the summary."""
    RESULTS_DIR.mkdir(exist_ok=True)
    (RESULTS_DIR / f"{name}.txt").write_text(text + "\n")
    SESSION_RESULTS.append((name, text))


def save_perf(name: str, report: SweepReport) -> dict:
    """Persist a sweep's perf counters as JSON next to the tables.

    Returns the counter dict so benches can also attach it to
    ``benchmark.extra_info`` (landing in BENCH_*.json).
    """
    payload = report.perf_dict()
    RESULTS_DIR.mkdir(exist_ok=True)
    (RESULTS_DIR / f"{name}_perf.json").write_text(
        json.dumps(payload, indent=2) + "\n"
    )
    SESSION_PERF[name] = payload
    return payload


#: Training sweep used for every TPM in the benchmark suite: the Fig. 5
#: axes (10–25 µs, 10–44 KB) extended with two lighter inter-arrival
#: points (40/60 µs) so the model sees both saturated and unsaturated
#: cells — without the latter, arrival flow speed carries no signal and
#: the model cannot predict light workloads (Fig. 10's light level).
DEFAULT_PLAN = SamplingPlan(
    interarrival_ns=(10_000, 16_000, 25_000, 40_000, 60_000),
    size_bytes=(16 * 1024, 32 * 1024, 44 * 1024),
    weight_ratios=(1, 2, 3, 4, 6, 8, 12),
    read_write_mixes=(1.0, 2.0),
    duration_ns=50 * MS,
)

_TPM_CACHE: dict[str, ThroughputPredictionModel] = {}


def trained_tpm(config: SSDConfig, plan: SamplingPlan | None = None) -> ThroughputPredictionModel:
    """A Random-Forest TPM for ``config``, trained once per session.

    The training sweep fans across :func:`bench_workers` processes; its
    perf counters land in ``results/tpm_training_<name>_perf.json``.
    """
    key = config.name
    if key not in _TPM_CACHE:
        training, report = collect_training_set_with_report(
            config, plan or DEFAULT_PLAN, workers=bench_workers()
        )
        save_perf(f"tpm_training_{key}", report)
        _TPM_CACHE[key] = ThroughputPredictionModel().fit(training)
    return _TPM_CACHE[key]


def vdi_like_trace(*, n_reads: int = 6000, n_writes: int = 2000, seed: int = 11) -> Trace:
    """The §IV-D workload: read-intensive, 44 KB reads / 23 KB writes,
    ~10 µs read inter-arrivals (≈35 Gbps offered read traffic)."""
    reads = MicroWorkloadConfig(10_000, 44 * 1024)
    writes = MicroWorkloadConfig(30_000, 23 * 1024)
    return generate_micro_trace(reads, writes, n_reads=n_reads, n_writes=n_writes, seed=seed)
