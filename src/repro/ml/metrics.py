"""Regression metrics.

The paper reports the coefficient of determination (R²) as "accuracy"
(Tables I and III); multi-output targets are averaged uniformly, which
is the behaviour assumed when a single accuracy number is quoted for a
model predicting both read and write throughput.
"""

from __future__ import annotations

import numpy as np


def _as_2d(a: np.ndarray) -> np.ndarray:
    a = np.asarray(a, dtype=np.float64)
    return a.reshape(-1, 1) if a.ndim == 1 else a


def r2_score(y_true: np.ndarray, y_pred: np.ndarray) -> float:
    """Coefficient of determination, uniformly averaged over outputs.

    A constant target column scores 1.0 if predicted exactly, else 0.0
    (the convention that keeps the score bounded for degenerate data).
    """
    yt, yp = _as_2d(y_true), _as_2d(y_pred)
    if yt.shape != yp.shape:
        raise ValueError(f"shape mismatch: {yt.shape} vs {yp.shape}")
    if yt.shape[0] == 0:
        raise ValueError("cannot score empty arrays")
    ss_res = np.sum((yt - yp) ** 2, axis=0)
    ss_tot = np.sum((yt - yt.mean(axis=0)) ** 2, axis=0)
    scores = np.empty(yt.shape[1])
    for j in range(yt.shape[1]):
        if ss_tot[j] == 0.0:
            scores[j] = 1.0 if ss_res[j] == 0.0 else 0.0
        else:
            scores[j] = 1.0 - ss_res[j] / ss_tot[j]
    return float(scores.mean())
