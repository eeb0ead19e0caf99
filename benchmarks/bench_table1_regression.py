"""Table I: regression accuracy of the five model families.

Paper (micro traces, 60/40 shuffled split, SSD-A):

    Linear 0.77 | Polynomial 0.74 | KNN 0.86 | Tree 0.89 | Forest 0.94

Expected shape: the ensemble (Random Forest) wins; the tree-based and
neighbor models beat the linear family.
"""

import pytest

from benchmarks.common import save_result, training_set
from repro.experiments.tables import format_table
from repro.ml import (
    DecisionTreeRegressor,
    KNeighborsRegressor,
    LinearRegression,
    PolynomialRegression,
    RandomForestRegressor,
    r2_score,
    train_test_split,
)
from repro.ssd.config import SSD_A

MODELS = [
    ("Linear Regression", lambda: LinearRegression()),
    ("Polynomial Regression", lambda: PolynomialRegression(degree=2)),
    ("K-Nearest Neighbor", lambda: KNeighborsRegressor(5, weights="distance")),
    ("Decision Tree Regression", lambda: DecisionTreeRegressor(seed=0)),
    ("Random Forest Regression", lambda: RandomForestRegressor(40, seed=0)),
]


def run_table1():
    training = training_set(SSD_A)
    Xtr, Xva, ytr, yva = train_test_split(
        training.X, training.y, train_fraction=0.6, seed=42
    )
    scores = {}
    for name, factory in MODELS:
        model = factory().fit(Xtr, ytr)
        scores[name] = r2_score(yva, model.predict(Xva))
    return scores


@pytest.mark.benchmark(group="table1")
def test_table1_regression_accuracy(benchmark):
    scores = benchmark.pedantic(run_table1, rounds=1, iterations=1)

    paper = {
        "Linear Regression": 0.77,
        "Polynomial Regression": 0.74,
        "K-Nearest Neighbor": 0.86,
        "Decision Tree Regression": 0.89,
        "Random Forest Regression": 0.94,
    }
    rows = [
        [name, f"{scores[name]:.2f}", f"{paper[name]:.2f}"] for name, _ in MODELS
    ]
    save_result(
        "table1_regression_accuracy",
        format_table(
            ["Model", "Accuracy (ours)", "Accuracy (paper)"],
            rows,
            title="Table I — Regression accuracy (R², 60/40 split, SSD-A micro traces)",
        ),
    )
    for name in paper:
        benchmark.extra_info[name] = round(scores[name], 3)

    # Shape checks: the tree family dominates and the forest is at (or
    # within noise of) the top — on our noiseless simulated grid a fully
    # grown single tree can memorise its way to parity with the
    # ensemble, which the paper's noisier testbed data prevents.
    best = max(scores.values())
    assert scores["Random Forest Regression"] >= best - 0.05
    assert scores["Random Forest Regression"] > 0.85
    assert scores["Random Forest Regression"] > scores["Linear Regression"]
    assert scores["Decision Tree Regression"] > scores["Linear Regression"]
