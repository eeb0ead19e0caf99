"""Shared benchmark infrastructure.

* :func:`save_result` — persist a reproduced table under
  ``benchmarks/results/`` and queue it for the terminal summary;
* :func:`bench_workers` — the worker count for the figure sweeps;
* :func:`training_set` — the session-cached TPM training set per SSD
  model (the expensive sweep runs once even when several benches need
  it);
* :func:`trained_tpm` — a TPM fitted once per session on that set;
* :func:`fig7_run` — session-cached runs of the shared Fig. 7 cell.
"""

from __future__ import annotations

import os
from pathlib import Path

from repro.core.sampling import SamplingPlan, TrainingSet, collect_training_set
from repro.core.tpm import ThroughputPredictionModel
from repro.experiments.comparison import FIG7_CELL
from repro.experiments.runner import RunResult, TestbedConfig
from repro.ssd.config import SSDConfig

RESULTS_DIR = Path(__file__).parent / "results"

#: (name, text) pairs replayed by the terminal summary hook.
SESSION_RESULTS: list[tuple[str, str]] = []


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


_TRAINING_SETS: dict[str, TrainingSet] = {}


def training_set(config: SSDConfig) -> TrainingSet:
    """The training set for ``config`` on the default
    :class:`SamplingPlan` grid, collected once per session.

    The sweep fans across :func:`bench_workers` processes.  Callers
    must not modify the arrays: every bench that trains on ``config``
    shares them.
    """
    key = config.name
    if key not in _TRAINING_SETS:
        _TRAINING_SETS[key] = collect_training_set(
            config, SamplingPlan(), workers=bench_workers()
        )
    return _TRAINING_SETS[key]


_TPM_CACHE: dict[str, ThroughputPredictionModel] = {}


def trained_tpm(config: SSDConfig) -> ThroughputPredictionModel:
    """A Random-Forest TPM for ``config``, fitted once per session on
    :func:`training_set`."""
    key = config.name
    if key not in _TPM_CACHE:
        _TPM_CACHE[key] = ThroughputPredictionModel().fit(training_set(config))
    return _TPM_CACHE[key]


_FIG7_RUNS: dict[TestbedConfig, RunResult] = {}


def fig7_run(config: TestbedConfig) -> RunResult:
    """The Fig. 7 cell (:data:`FIG7_CELL`) on ``config``, run once per
    session: Figs. 7/8, §V and the TXQ ablation share its arms."""
    if config not in _FIG7_RUNS:
        tpm = (
            trained_tpm(FIG7_CELL.ssd_config)
            if config.driver == "ssq" and config.src_enabled
            else None
        )
        _FIG7_RUNS[config] = FIG7_CELL.run(config, tpm=tpm)
    return _FIG7_RUNS[config]
