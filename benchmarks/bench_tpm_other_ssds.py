"""§IV-C closing claim: "Similar accuracy is also obtained for the
other two types of SSDs in Table II."

Trains and validates a Random-Forest TPM on SSD-B and SSD-C with the
same sweep recipe used for SSD-A and checks the shuffled-split R² stays
in the reliable band.
"""

import pytest

from benchmarks.common import save_result, training_set
from repro.core.sampling import TrainingSet
from repro.core.tpm import ThroughputPredictionModel
from repro.experiments.tables import format_table
from repro.ml import train_test_split
from repro.ssd.config import SSD_B, SSD_C


def run_other_ssds():
    scores = {}
    for config in (SSD_B, SSD_C):
        ts = training_set(config)
        Xtr, Xva, ytr, yva = train_test_split(
            ts.X, ts.y, train_fraction=0.6, seed=42
        )
        tpm = ThroughputPredictionModel().fit(TrainingSet(X=Xtr, y=ytr))
        scores[config.name] = tpm.score(TrainingSet(X=Xva, y=yva))
    return scores


@pytest.mark.benchmark(group="tpm-ssds")
def test_tpm_accuracy_other_ssds(benchmark):
    scores = benchmark.pedantic(run_other_ssds, rounds=1, iterations=1)
    rows = [[name, f"{score:.2f}"] for name, score in scores.items()]
    save_result(
        "tpm_other_ssds",
        format_table(
            ["SSD", "Random-Forest R²"],
            rows,
            title="§IV-C — TPM accuracy on the other Table II devices "
            "(paper: 'similar accuracy')",
        ),
    )
    for name, score in scores.items():
        benchmark.extra_info[name] = round(score, 3)
        assert score > 0.75, (name, score)
