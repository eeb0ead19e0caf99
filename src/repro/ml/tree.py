"""CART regression tree with variance-reduction splitting.

Split search is vectorised per node: for all candidate features at
once, the sorted prefix sums of ``y`` and ``y**2`` give the weighted
child impurities of every threshold in one pass.  Multi-output targets
use the summed per-output variance as the impurity, so one tree can
predict read and write throughput jointly (as the TPM requires).

Feature importances follow Breiman's mean-decrease-in-impurity: each
split credits its feature with ``n_node * (impurity - weighted child
impurity)``, normalised to sum to one.

A fitted tree is stored as flat per-node lists (pre-order, root at
index 0) of plain Python ints and floats.  Inference walks them with a
row of plain floats: per-call NumPy overhead would dominate the
microsecond-scale walk, and the SRC controller predicts one row at a
time.
"""

from __future__ import annotations

import numpy as np

from repro.ml.base import check_X, check_Xy
from repro.sim.rng import make_rng


def _impurity_sums(y: np.ndarray) -> float:
    """Total variance impurity * n (summed over outputs) of target block."""
    return float(np.sum(y.var(axis=0)) * y.shape[0])


class DecisionTreeRegressor:
    """CART regression tree.

    Parameters
    ----------
    max_depth:
        Maximum tree depth; ``None`` grows until purity/min-samples stop.
    min_samples_split:
        Minimum rows required to attempt a split.
    min_samples_leaf:
        Minimum rows each child must keep.
    max_features:
        Features examined per split: ``None`` (all), an int, or a float
        fraction — the hook random forests use for decorrelation.
    seed:
        RNG seed for the feature subsampling (only relevant when
        ``max_features`` restricts the candidate set).
    """

    def __init__(
        self,
        *,
        max_depth: int | None = None,
        min_samples_split: int = 2,
        min_samples_leaf: int = 1,
        max_features: int | float | None = None,
        seed: int | None = None,
    ) -> None:
        if max_depth is not None and max_depth < 1:
            raise ValueError(f"max_depth must be >= 1, got {max_depth}")
        if min_samples_split < 2:
            raise ValueError(f"min_samples_split must be >= 2, got {min_samples_split}")
        if min_samples_leaf < 1:
            raise ValueError(f"min_samples_leaf must be >= 1, got {min_samples_leaf}")
        self.max_depth = max_depth
        self.min_samples_split = min_samples_split
        self.min_samples_leaf = min_samples_leaf
        self.max_features = max_features
        self.seed = seed
        # Per-node lists, filled by fit(); leaves have feature -1 and
        # children -1.  _value holds each node's mean training target.
        self._feature: list[int] = []
        self._threshold: list[float] = []
        self._left: list[int] = []
        self._right: list[int] = []
        self._value: list[list[float]] = []
        self._n_features = 0
        self._importance_raw: np.ndarray | None = None
        self._single_output = True

    # -- fitting -----------------------------------------------------------
    def fit(self, X: np.ndarray, y: np.ndarray) -> "DecisionTreeRegressor":
        X, y = check_Xy(X, y)
        self._single_output = y.ndim == 1
        y2 = y.reshape(-1, 1) if self._single_output else y
        self._n_features = X.shape[1]
        self._importance_raw = np.zeros(self._n_features)
        self._rng = make_rng(self.seed)
        self._feature, self._threshold = [], []
        self._left, self._right, self._value = [], [], []
        self._build(X, y2, depth=0)
        return self

    def _n_candidate_features(self) -> int:
        if self.max_features is None:
            return self._n_features
        if isinstance(self.max_features, float):
            if not 0.0 < self.max_features <= 1.0:
                raise ValueError("fractional max_features must be in (0, 1]")
            return max(1, int(self.max_features * self._n_features))
        if self.max_features < 1:
            raise ValueError(f"max_features must be >= 1, got {self.max_features}")
        return min(self.max_features, self._n_features)

    def _best_split(
        self, X: np.ndarray, y: np.ndarray
    ) -> tuple[int, float, float] | None:
        """Find (feature, threshold, impurity_decrease) or None."""
        n = X.shape[0]
        parent_imp = _impurity_sums(y)
        if parent_imp <= 1e-12:
            return None
        k = self._n_candidate_features()
        if k < self._n_features:
            features = self._rng.choice(self._n_features, size=k, replace=False)
        else:
            features = np.arange(self._n_features)

        # All candidate features in one batched pass: column j of every
        # array below runs the float operations of a per-feature search
        # on features[j] in the same order (cumsum accumulates
        # sequentially, the output sum reduces the same contiguous last
        # axis), so the chosen split is bit-identical to that search's.
        xf = X[:, features]
        order = np.argsort(xf, axis=0, kind="stable")
        xs = np.take_along_axis(xf, order, axis=0)
        ys = y[order]  # (n, k, outputs)
        # Prefix sums over rows for every feature and output column.
        csum = np.cumsum(ys, axis=0)
        csum2 = np.cumsum(ys**2, axis=0)
        total, total2 = csum[-1], csum2[-1]
        # Candidate split after position i (1-indexed sizes).
        sizes_l = np.arange(1, n)
        min_leaf = self.min_samples_leaf
        sizes_ok = (sizes_l >= min_leaf) & (n - sizes_l >= min_leaf)
        valid = (xs[:-1] < xs[1:]) & sizes_ok[:, None]
        sl = csum[:-1]
        sl2 = csum2[:-1]
        nl = sizes_l[:, None, None].astype(np.float64)
        nr = (n - sizes_l)[:, None, None].astype(np.float64)
        # n * variance = sum(y^2) - sum(y)^2 / n, per child, per output.
        imp_l = (sl2 - sl**2 / nl).sum(axis=2)
        imp_r = ((total2 - sl2) - (total - sl) ** 2 / nr).sum(axis=2)
        decrease = parent_imp - (imp_l + imp_r)
        decrease[~valid] = -np.inf
        best_rows = np.argmax(decrease, axis=0)

        best: tuple[int, float, float] | None = None
        # Features in drawn order; a strictly larger decrease wins.  A
        # feature with no valid split reads -inf and is skipped here.
        for j, f in enumerate(features):
            i = best_rows[j]
            gain = decrease[i, j]
            if gain <= 1e-12:
                continue
            if best is None or gain > best[2]:
                thr = 0.5 * (xs[i, j] + xs[i + 1, j])
                best = (int(f), float(thr), float(gain))
        return best

    def _build(self, X: np.ndarray, y: np.ndarray, depth: int) -> int:
        """Append the subtree for these rows; returns its root's index."""
        node = len(self._feature)
        self._feature.append(-1)
        self._threshold.append(0.0)
        self._left.append(-1)
        self._right.append(-1)
        self._value.append(y.mean(axis=0).tolist())
        n = X.shape[0]
        if (
            n < self.min_samples_split
            or (self.max_depth is not None and depth >= self.max_depth)
        ):
            return node
        split = self._best_split(X, y)
        if split is None:
            return node
        feature, threshold, decrease = split
        self._importance_raw[feature] += decrease
        mask = X[:, feature] <= threshold
        self._feature[node] = feature
        self._threshold[node] = threshold
        self._left[node] = self._build(X[mask], y[mask], depth + 1)
        self._right[node] = self._build(X[~mask], y[~mask], depth + 1)
        return node

    # -- inference -----------------------------------------------------------
    def _check_fitted(self) -> None:
        if not self._feature:
            raise RuntimeError("model is not fitted")

    def leaf_value(self, row: list[float]) -> list[float]:
        """Mean training target of the leaf ``row`` (plain floats) lands in."""
        feature = self._feature
        threshold = self._threshold
        left = self._left
        right = self._right
        node = 0
        f = feature[0]
        while f >= 0:
            node = left[node] if row[f] <= threshold[node] else right[node]
            f = feature[node]
        return self._value[node]

    def predict(self, X: np.ndarray) -> np.ndarray:
        self._check_fitted()
        X = check_X(X, self._n_features)
        out = np.array(
            [self.leaf_value(row) for row in X.tolist()], dtype=np.float64
        ).reshape(X.shape[0], len(self._value[0]))
        return out.ravel() if self._single_output else out

    @property
    def feature_importances_(self) -> np.ndarray:
        """Breiman mean-decrease-in-impurity importances (sum to 1)."""
        if self._importance_raw is None:
            raise RuntimeError("model is not fitted")
        total = self._importance_raw.sum()
        if total == 0.0:
            return np.zeros_like(self._importance_raw)
        return self._importance_raw / total

    def depth(self) -> int:
        """Actual depth of the fitted tree (0 = single leaf)."""
        self._check_fitted()
        # Pre-order storage: every child comes after its parent.
        depths = [0] * len(self._feature)
        for node, f in enumerate(self._feature):
            if f >= 0:
                depths[self._left[node]] = depths[self._right[node]] = depths[node] + 1
        return max(depths)

    def n_leaves(self) -> int:
        """Number of leaf nodes in the fitted tree."""
        self._check_fitted()
        return sum(1 for f in self._feature if f < 0)
