"""Table III: RF cross-validation accuracy over four SCV classes.

Paper: synthetic (MMPP) traces are classed by low/high request-size SCV
× low/high inter-arrival SCV; each class is validated against a model
trained on the remaining synthetic traces plus all micro traces.
Accuracies 0.89–0.98 — the expected shape is "reliably high (>0.7)
across every burstiness class".
"""

import zlib

import numpy as np
import pytest

from benchmarks.common import bench_workers, save_result, training_set
from repro.core.sampling import collect_training_set
from repro.core.tpm import ThroughputPredictionModel
from repro.experiments.tables import format_table
from repro.ssd.config import SSD_A
from repro.workloads.mmpp import fit_mmpp2, generate_mmpp_trace
from repro.workloads.request import OpType
from repro.workloads.traces import merge_traces

#: (label, size SCV, inter-arrival SCV) — the four Table III classes.
CLASSES = [
    ("low size SCV + low inter-arrival SCV", 1.2, 1.2),
    ("low size SCV + high inter-arrival SCV", 1.2, 5.0),
    ("high size SCV + low inter-arrival SCV", 4.0, 1.2),
    ("high size SCV + high inter-arrival SCV", 4.0, 5.0),
]

PAPER = {label: acc for (label, _, _), acc in zip(CLASSES, (0.89, 0.98, 0.96, 0.95))}

RATIOS = (1, 2, 4, 8)


def synthetic_class_traces(size_scv, inter_scv, *, n_traces=3, seed=0):
    """Bursty MMPP traces for one Table III class."""
    traces = []
    for i in range(n_traces):
        inter = (9_000, 14_000, 22_000)[i % 3]
        process = fit_mmpp2(inter, inter_scv, 0.2)
        n = max(300, int(45_000_000 / inter))
        reads = generate_mmpp_trace(
            process, n_requests=n, op=OpType.READ, mean_size_bytes=32 * 1024,
            size_scv=size_scv, seed=seed + i,
        )
        writes = generate_mmpp_trace(
            process, n_requests=n, op=OpType.WRITE, mean_size_bytes=32 * 1024,
            size_scv=size_scv, seed=seed + 100 + i,
        )
        traces.append(merge_traces([reads, writes]))
    return traces


def run_table3():
    micro = training_set(SSD_A)
    class_sets = {}
    for label, size_scv, inter_scv in CLASSES:
        # zlib.crc32, not hash(): str hashes are PYTHONHASHSEED-randomised,
        # which made the Table III traces differ between pytest sessions.
        traces = synthetic_class_traces(
            size_scv, inter_scv, seed=zlib.crc32(label.encode()) % 1000
        )
        class_sets[label] = collect_training_set(
            SSD_A, None, traces=traces, weight_ratios=RATIOS,
            workers=bench_workers(),
        )

    accuracies = {}
    for label, _, _ in CLASSES:
        # Train on all micro samples + the *other* classes' synthetics.
        train = micro
        for other, data in class_sets.items():
            if other != label:
                train = train.merge(data)
        tpm = ThroughputPredictionModel().fit(train)
        accuracies[label] = tpm.score(class_sets[label])
    return accuracies


@pytest.mark.benchmark(group="table3")
def test_table3_crossval_accuracy(benchmark):
    accuracies = benchmark.pedantic(run_table3, rounds=1, iterations=1)
    rows = [
        [label, f"{accuracies[label]:.2f}", f"{PAPER[label]:.2f}"]
        for label, _, _ in CLASSES
    ]
    save_result(
        "table3_crossval_accuracy",
        format_table(
            ["Data Subset", "Accuracy (ours)", "Accuracy (paper)"],
            rows,
            title="Table III — Cross-validation accuracy, Random Forest (SSD-A)",
        ),
    )
    for label, acc in accuracies.items():
        benchmark.extra_info[label] = round(acc, 3)
    # Shape: reliable prediction for every burstiness class.
    assert all(acc > 0.6 for acc in accuracies.values()), accuracies
