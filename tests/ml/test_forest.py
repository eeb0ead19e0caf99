"""Random-forest regression tests."""

import numpy as np
import pytest

from repro.ml.forest import RandomForestRegressor
from repro.ml.metrics import r2_score


def friedman_like(n=400, seed=0):
    rng = np.random.default_rng(seed)
    X = rng.uniform(size=(n, 4))
    y = 10 * np.sin(np.pi * X[:, 0] * X[:, 1]) + 20 * (X[:, 2] - 0.5) ** 2
    return X, y


def test_fits_nonlinear_function():
    X, y = friedman_like()
    model = RandomForestRegressor(30, seed=1).fit(X[:300], y[:300])
    assert r2_score(y[300:], model.predict(X[300:])) > 0.75


def test_forest_beats_or_matches_single_tree_out_of_sample():
    from repro.ml.tree import DecisionTreeRegressor

    X, y = friedman_like(seed=2)
    noise = np.random.default_rng(3).normal(0, 2.0, size=y.shape)
    y_noisy = y + noise
    tree = DecisionTreeRegressor(seed=0).fit(X[:300], y_noisy[:300])
    forest = RandomForestRegressor(40, seed=0).fit(X[:300], y_noisy[:300])
    tree_score = r2_score(y[300:], tree.predict(X[300:]))
    forest_score = r2_score(y[300:], forest.predict(X[300:]))
    assert forest_score >= tree_score - 0.02


def test_deterministic_with_seed():
    X, y = friedman_like(100)
    a = RandomForestRegressor(10, seed=5).fit(X, y).predict(X)
    b = RandomForestRegressor(10, seed=5).fit(X, y).predict(X)
    assert np.array_equal(a, b)


def test_different_seeds_differ():
    X, y = friedman_like(100)
    a = RandomForestRegressor(10, seed=5).fit(X, y).predict(X)
    b = RandomForestRegressor(10, seed=6).fit(X, y).predict(X)
    assert not np.array_equal(a, b)


def test_n_estimators_respected():
    X, y = friedman_like(50)
    model = RandomForestRegressor(7, seed=0).fit(X, y)
    assert len(model.trees_) == 7


def test_multioutput():
    X, y = friedman_like(100)
    Y = np.column_stack([y, -y])
    model = RandomForestRegressor(10, seed=0).fit(X, Y)
    pred = model.predict(X)
    assert pred.shape == (100, 2)
    assert np.allclose(pred[:, 0], -pred[:, 1])


def test_feature_importances_sum_to_one_and_rank():
    rng = np.random.default_rng(4)
    X = rng.uniform(size=(400, 3))
    y = 5.0 * X[:, 2] + 0.01 * rng.normal(size=400)
    model = RandomForestRegressor(20, seed=0).fit(X, y)
    imp = model.feature_importances_
    assert imp.sum() == pytest.approx(1.0)
    assert imp[2] == imp.max()


def test_no_bootstrap_mode():
    X, y = friedman_like(100)
    model = RandomForestRegressor(5, bootstrap=False, max_features=None, seed=0).fit(X, y)
    # Without bootstrap or feature sampling, all trees are identical full
    # trees: the forest memorises the training set.
    assert np.allclose(model.predict(X), y)


def test_predictions_within_target_range():
    X, y = friedman_like(150, seed=5)
    model = RandomForestRegressor(10, seed=0).fit(X, y)
    pred = model.predict(np.random.default_rng(6).uniform(size=(50, 4)) * 3)
    assert pred.min() >= y.min() - 1e-9
    assert pred.max() <= y.max() + 1e-9


def test_validation():
    with pytest.raises(ValueError):
        RandomForestRegressor(0)
    with pytest.raises(RuntimeError):
        RandomForestRegressor().predict(np.zeros((1, 1)))
    with pytest.raises(RuntimeError):
        _ = RandomForestRegressor().feature_importances_


def _descend(tree, node, row):
    """Recursive reference walk over a fitted tree's node lists."""
    f = tree._feature[node]
    if f < 0:
        return np.asarray(tree._value[node])
    if row[f] <= tree._threshold[node]:
        return _descend(tree, tree._left[node], row)
    return _descend(tree, tree._right[node], row)


def _reference_predict(forest, X):
    """Per-tree recursive walks into whole arrays, summed by NumPy."""
    acc = np.zeros((X.shape[0], len(forest.trees_[0]._value[0])))
    for tree in forest.trees_:
        acc += np.array([_descend(tree, 0, row) for row in X])
    acc /= len(forest.trees_)
    return acc


def _subtree_depth(tree, node):
    if tree._feature[node] < 0:
        return 0
    return 1 + max(
        _subtree_depth(tree, tree._left[node]), _subtree_depth(tree, tree._right[node])
    )


def _subtree_leaves(tree, node):
    if tree._feature[node] < 0:
        return 1
    return _subtree_leaves(tree, tree._left[node]) + _subtree_leaves(
        tree, tree._right[node]
    )


def test_flat_walk_is_bit_identical_to_recursive_walk():
    """The plain-float walk sums trees in fit order, then divides: the
    same float operations as accumulating per-tree arrays, so every
    prediction matches to the last bit — on the training rows, on
    perturbed and out-of-range rows, and on rows sitting exactly on a
    split threshold (where ``<=`` must send them left)."""
    rng = np.random.default_rng(11)
    X = rng.uniform(size=(200, 9))
    X[:, 4] = np.round(X[:, 4] * 4)  # a few repeated values, as in ratios
    Y = np.column_stack(
        [5 * X[:, 0] * X[:, 1] + X[:, 4], np.sin(3 * X[:, 2]) + rng.normal(0, 0.1, 200)]
    )
    forest = RandomForestRegressor(40, max_features=1 / 3, seed=7).fit(X, Y)
    on_split = X[:50].copy()
    for i, tree in enumerate(forest.trees_[:50]):
        on_split[i, tree._feature[0]] = tree._threshold[0]
    probes = np.vstack([
        X,
        X + rng.normal(0, 0.05, size=X.shape),
        rng.uniform(-1.0, 2.0, size=(100, 9)),
        on_split,
    ])
    want = _reference_predict(forest, probes)
    got = forest.predict(probes)
    assert got.shape == want.shape
    assert got.tobytes() == want.tobytes()
    for row in probes[:40]:  # the controller predicts one row at a time
        assert forest.predict(row.reshape(1, -1)).tobytes() == (
            _reference_predict(forest, row.reshape(1, -1)).tobytes()
        )
    for tree in forest.trees_:
        assert tree.depth() == _subtree_depth(tree, 0)
        assert tree.n_leaves() == _subtree_leaves(tree, 0)
        single = tree.predict(probes)
        ref = np.array([_descend(tree, 0, row) for row in probes])
        assert single.tobytes() == ref.tobytes()
