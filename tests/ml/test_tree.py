"""CART decision-tree regression tests."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ml.metrics import r2_score
from repro.ml.tree import DecisionTreeRegressor


def step_data():
    X = np.linspace(0, 1, 100).reshape(-1, 1)
    y = (X.ravel() > 0.5).astype(float)
    return X, y


def test_learns_step_function_with_one_split():
    X, y = step_data()
    tree = DecisionTreeRegressor(max_depth=1).fit(X, y)
    assert r2_score(y, tree.predict(X)) == pytest.approx(1.0)
    assert tree.depth() == 1
    assert tree.n_leaves() == 2


def test_full_tree_memorises():
    rng = np.random.default_rng(0)
    X = rng.normal(size=(50, 2))
    y = rng.normal(size=50)
    tree = DecisionTreeRegressor().fit(X, y)
    assert np.allclose(tree.predict(X), y)


def test_max_depth_limits_tree():
    rng = np.random.default_rng(1)
    X = rng.normal(size=(200, 3))
    y = rng.normal(size=200)
    tree = DecisionTreeRegressor(max_depth=3).fit(X, y)
    assert tree.depth() <= 3
    assert tree.n_leaves() <= 8


def test_min_samples_leaf_respected():
    X, y = step_data()
    tree = DecisionTreeRegressor(min_samples_leaf=30).fit(X, y)
    # With 100 points and min leaf 30, at most 3 leaves.
    assert tree.n_leaves() <= 3


def test_pure_node_stops_splitting():
    X = np.arange(10.0).reshape(-1, 1)
    y = np.zeros(10)
    tree = DecisionTreeRegressor().fit(X, y)
    assert tree.n_leaves() == 1


def test_constant_feature_never_split():
    X = np.ones((20, 1))
    y = np.arange(20.0)
    tree = DecisionTreeRegressor().fit(X, y)
    assert tree.n_leaves() == 1
    assert tree.predict(X)[0] == pytest.approx(y.mean())


def test_multioutput():
    X = np.linspace(0, 1, 60).reshape(-1, 1)
    y = np.column_stack([(X.ravel() > 0.3).astype(float), (X.ravel() > 0.7) * 2.0])
    tree = DecisionTreeRegressor().fit(X, y)
    pred = tree.predict(X)
    assert pred.shape == (60, 2)
    assert r2_score(y, pred) == pytest.approx(1.0)


def test_feature_importances_identify_relevant_feature():
    rng = np.random.default_rng(2)
    X = rng.uniform(size=(300, 3))
    y = (X[:, 1] > 0.5).astype(float)  # only feature 1 matters
    tree = DecisionTreeRegressor(seed=0).fit(X, y)
    imp = tree.feature_importances_
    assert imp.shape == (3,)
    assert imp[1] > 0.9
    assert imp.sum() == pytest.approx(1.0)


def test_importances_zero_when_no_splits():
    X = np.ones((10, 2))
    y = np.zeros(10)
    tree = DecisionTreeRegressor().fit(X, y)
    assert np.all(tree.feature_importances_ == 0.0)


def test_max_features_subsampling_still_fits():
    rng = np.random.default_rng(3)
    X = rng.uniform(size=(200, 4))
    y = X[:, 0] + X[:, 3]
    tree = DecisionTreeRegressor(max_features=2, seed=1).fit(X, y)
    assert r2_score(y, tree.predict(X)) > 0.9


def test_validation():
    with pytest.raises(ValueError):
        DecisionTreeRegressor(max_depth=0)
    with pytest.raises(ValueError):
        DecisionTreeRegressor(min_samples_split=1)
    with pytest.raises(ValueError):
        DecisionTreeRegressor(min_samples_leaf=0)
    with pytest.raises(RuntimeError):
        DecisionTreeRegressor().predict(np.zeros((1, 1)))
    with pytest.raises(RuntimeError):
        _ = DecisionTreeRegressor().feature_importances_


def test_prediction_deterministic():
    rng = np.random.default_rng(4)
    X = rng.normal(size=(100, 3))
    y = rng.normal(size=100)
    a = DecisionTreeRegressor(max_features=2, seed=9).fit(X, y).predict(X)
    b = DecisionTreeRegressor(max_features=2, seed=9).fit(X, y).predict(X)
    assert np.array_equal(a, b)


@settings(deadline=None, max_examples=25)
@given(st.integers(min_value=5, max_value=60), st.integers(min_value=0, max_value=10**6))
def test_predictions_within_target_range_property(n, seed):
    """Tree predictions are means of training targets: always in range."""
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(n, 2))
    y = rng.uniform(-5, 5, size=n)
    tree = DecisionTreeRegressor(max_depth=4).fit(X, y)
    pred = tree.predict(rng.normal(size=(20, 2)) * 10)
    assert pred.min() >= y.min() - 1e-9
    assert pred.max() <= y.max() + 1e-9


class PerFeatureTree(DecisionTreeRegressor):
    """Reference split search: one feature at a time, in drawn order."""

    def _best_split(self, X, y):
        n = X.shape[0]
        parent_imp = float(np.sum(y.var(axis=0)) * y.shape[0])
        if parent_imp <= 1e-12:
            return None
        k = self._n_candidate_features()
        if k < self._n_features:
            features = self._rng.choice(self._n_features, size=k, replace=False)
        else:
            features = np.arange(self._n_features)
        best = None
        min_leaf = self.min_samples_leaf
        for f in features:
            order = np.argsort(X[:, f], kind="stable")
            xs = X[order, f]
            ys = y[order]
            csum = np.cumsum(ys, axis=0)
            csum2 = np.cumsum(ys**2, axis=0)
            total, total2 = csum[-1], csum2[-1]
            sizes_l = np.arange(1, n)
            valid = (xs[:-1] < xs[1:]) & (sizes_l >= min_leaf) & (n - sizes_l >= min_leaf)
            if not valid.any():
                continue
            sl = csum[:-1]
            sl2 = csum2[:-1]
            nl = sizes_l[:, None].astype(np.float64)
            nr = (n - sizes_l)[:, None].astype(np.float64)
            imp_l = (sl2 - sl**2 / nl).sum(axis=1)
            imp_r = ((total2 - sl2) - (total - sl) ** 2 / nr).sum(axis=1)
            decrease = parent_imp - (imp_l + imp_r)
            decrease[~valid] = -np.inf
            i = int(np.argmax(decrease))
            if decrease[i] <= 1e-12:
                continue
            thr = 0.5 * (xs[i] + xs[i + 1])
            if best is None or decrease[i] > best[2]:
                best = (int(f), float(thr), float(decrease[i]))
        return best


def fitted_bits(tree):
    """Every fitted float of ``tree`` as bytes, plus its structure."""
    return (
        tree._feature,
        tree._left,
        tree._right,
        np.array(tree._threshold).tobytes(),
        np.array(tree._value).tobytes(),
        tree._importance_raw.tobytes(),
    )


@settings(deadline=None, max_examples=150)
@given(
    st.integers(min_value=2, max_value=40),  # rows
    st.integers(min_value=1, max_value=5),  # features
    st.integers(min_value=1, max_value=3),  # outputs
    st.integers(min_value=1, max_value=6),  # distinct x values per feature
    st.integers(min_value=1, max_value=4),  # min_samples_leaf
    st.sampled_from([None, 1, 2, 3, 0.5, 1.0]),  # max_features
    st.integers(min_value=0, max_value=10**6),
)
def test_batched_split_matches_per_feature_search_property(
    n, n_features, n_outputs, levels, min_leaf, max_features, seed
):
    """All candidate features searched at once pick bit-identical splits."""
    rng = np.random.default_rng(seed)
    # Few distinct x values: duplicate thresholds and invalid columns.
    X = rng.integers(0, levels, size=(n, n_features)).astype(np.float64) * 0.1
    y = rng.normal(size=(n, n_outputs)) * 10.0 ** rng.integers(-3, 4, size=n_outputs)
    if n_outputs == 1:
        y = y.ravel()
    params = dict(min_samples_leaf=min_leaf, max_features=max_features, seed=seed)
    batched = DecisionTreeRegressor(**params).fit(X, y)
    reference = PerFeatureTree(**params).fit(X, y)
    assert fitted_bits(batched) == fitted_bits(reference)
