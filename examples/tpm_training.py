#!/usr/bin/env python3
"""Train and evaluate the throughput-prediction model (§III-B).

Collects training samples by sweeping micro workloads × weight ratios on
a black-box simulated SSD, compares the five regression families of
Table I on a shuffled 60/40 split, inspects the winning model's Breiman
feature importances, and demonstrates Algorithm 1's PredictWeightRatio.

Run:  python examples/tpm_training.py   (about 12 s on a 2-vCPU container)
"""

from repro.core import (
    SamplingPlan,
    ThroughputPredictionModel,
    collect_training_set,
    predict_weight_ratio,
)
from repro.core.sampling import TrainingSet
from repro.ml import (
    DecisionTreeRegressor,
    KNeighborsRegressor,
    LinearRegression,
    PolynomialRegression,
    RandomForestRegressor,
    r2_score,
    train_test_split,
)
from repro.ssd import SSD_A
from repro.workloads import MicroWorkloadConfig, extract_features, generate_micro_trace


def main() -> None:
    plan = SamplingPlan()  # the grid the benchmark suite trains on
    print(f"collecting {plan.n_cells()} training samples on {SSD_A.name}...")
    training = collect_training_set(
        SSD_A, plan, progress=lambda d, t: print(f"  {d}/{t}", end="\r")
    )
    print(f"\ncollected {len(training)} samples")

    Xtr, Xva, ytr, yva = train_test_split(
        training.X, training.y, train_fraction=0.6, seed=42
    )
    print("\nTable I — regression accuracy (R² on the held-out 40%):")
    models = [
        ("Linear Regression", LinearRegression()),
        ("Polynomial Regression", PolynomialRegression(degree=2)),
        ("K-Nearest Neighbor", KNeighborsRegressor(5, weights="distance")),
        ("Decision Tree Regression", DecisionTreeRegressor(seed=0)),
        ("Random Forest Regression", RandomForestRegressor(40, seed=0)),
    ]
    for name, model in models:
        model.fit(Xtr, ytr)
        print(f"  {name:<26} {r2_score(yva, model.predict(Xva)):.2f}")

    # The paper adopts the Random Forest; wrap it as the TPM.
    tpm = ThroughputPredictionModel().fit(TrainingSet(X=Xtr, y=ytr))
    print("\ntop feature importances (paper: flow speed ≈ 0.39 combined):")
    for name, value in sorted(tpm.feature_importances().items(), key=lambda kv: -kv[1])[:5]:
        print(f"  {name:<28} {value:.3f}")
    print(f"  combined flow-speed importance: {tpm.flow_speed_importance():.3f}")

    # Algorithm 1 in action: pick w for a demanded sending rate.
    workload = MicroWorkloadConfig(10_000, 40 * 1024)
    trace = generate_micro_trace(workload, n_reads=3000, n_writes=3000, seed=7)
    features = extract_features(trace)
    base_read, base_write = tpm.predict(features, 1)
    print(f"\npredicted throughput at w=1: read {base_read:.2f}, "
          f"write {base_write:.2f} Gbps")
    for demanded in (base_read * 0.6, base_read * 0.3, base_read * 0.15):
        w = predict_weight_ratio(tpm, demanded, features)
        predicted = tpm.predict_read(features, w)
        print(f"  demanded rate {demanded:.2f} Gbps -> w={w} "
              f"(predicted read {predicted:.2f} Gbps)")


if __name__ == "__main__":
    main()
