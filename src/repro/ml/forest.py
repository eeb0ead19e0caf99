"""Random-forest regression: bagged CART trees with feature subsampling.

The ensemble the paper adopts for its throughput-prediction model
(Table I: best accuracy, 0.94).  Predictions average the trees; feature
importances average the trees' Breiman importances — the quantity behind
the paper's "read and write arrival flow speed carries weight 0.39"
observation.
"""

from __future__ import annotations

import numpy as np

from repro.ml.base import check_X, check_Xy
from repro.ml.tree import DecisionTreeRegressor
from repro.sim.rng import spawn_rngs


class RandomForestRegressor:
    """Bootstrap-aggregated regression forest.

    Parameters
    ----------
    n_estimators:
        Number of trees.
    max_features:
        Per-split feature candidates (default 1/3 of features, the
        classic regression-forest heuristic).
    bootstrap:
        Draw each tree's training set with replacement (size n).
    """

    def __init__(
        self,
        n_estimators: int = 50,
        *,
        max_depth: int | None = None,
        min_samples_split: int = 2,
        min_samples_leaf: int = 1,
        max_features: int | float | None = 1 / 3,
        bootstrap: bool = True,
        seed: int | None = None,
    ) -> None:
        if n_estimators < 1:
            raise ValueError(f"n_estimators must be >= 1, got {n_estimators}")
        self.n_estimators = n_estimators
        self.max_depth = max_depth
        self.min_samples_split = min_samples_split
        self.min_samples_leaf = min_samples_leaf
        self.max_features = max_features
        self.bootstrap = bootstrap
        self.seed = seed
        self.trees_: list[DecisionTreeRegressor] = []
        self._n_features = 0
        self._single_output = True

    def fit(self, X: np.ndarray, y: np.ndarray) -> "RandomForestRegressor":
        X, y = check_Xy(X, y)
        self._single_output = y.ndim == 1
        y2 = y.reshape(-1, 1) if self._single_output else y
        self._n_features = X.shape[1]
        rngs = spawn_rngs(self.seed, self.n_estimators)
        self.trees_ = []
        n = X.shape[0]
        for rng in rngs:
            if self.bootstrap:
                idx = rng.integers(0, n, size=n)
                Xb, yb = X[idx], y2[idx]
            else:
                Xb, yb = X, y2
            tree = DecisionTreeRegressor(
                max_depth=self.max_depth,
                min_samples_split=self.min_samples_split,
                min_samples_leaf=self.min_samples_leaf,
                max_features=self.max_features,
                seed=int(rng.integers(0, 2**31)),
            )
            tree.fit(Xb, yb)
            self.trees_.append(tree)
        return self

    def predict(self, X: np.ndarray) -> np.ndarray:
        """Mean of the trees' predictions.

        Each row is walked as plain floats.  The per-output sums run
        from 0.0 over the trees in fit order and are then divided by
        the tree count: the same float operations, in the same order,
        as accumulating whole per-tree prediction arrays.
        """
        if not self.trees_:
            raise RuntimeError("model is not fitted")
        X = check_X(X, self._n_features)
        trees = self.trees_
        n_trees = len(trees)
        n_out = len(trees[0]._value[0])
        out = []
        for row in X.tolist():
            acc = [0.0] * n_out
            for tree in trees:
                for j, v in enumerate(tree.leaf_value(row)):
                    acc[j] += v
            out.append([a / n_trees for a in acc])
        pred = np.array(out, dtype=np.float64).reshape(X.shape[0], n_out)
        return pred.ravel() if self._single_output else pred

    @property
    def feature_importances_(self) -> np.ndarray:
        """Forest-averaged Breiman importances (sum to 1)."""
        if not self.trees_:
            raise RuntimeError("model is not fitted")
        stacked = np.vstack([t.feature_importances_ for t in self.trees_])
        mean = stacked.mean(axis=0)
        total = mean.sum()
        return mean / total if total > 0 else mean
