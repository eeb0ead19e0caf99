"""R² tests."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.ml.metrics import r2_score


def test_perfect_prediction_is_one():
    y = np.array([1.0, 2.0, 3.0])
    assert r2_score(y, y) == 1.0


def test_mean_prediction_is_zero():
    y = np.array([1.0, 2.0, 3.0])
    pred = np.full(3, 2.0)
    assert r2_score(y, pred) == pytest.approx(0.0)


def test_worse_than_mean_is_negative():
    y = np.array([1.0, 2.0, 3.0])
    pred = np.array([3.0, 2.0, 1.0])
    assert r2_score(y, pred) < 0.0


def test_known_value():
    y = np.array([0.0, 2.0])  # ss_tot = 2
    pred = np.array([0.0, 1.0])  # ss_res = 1
    assert r2_score(y, pred) == pytest.approx(0.5)


def test_multioutput_averages_uniformly():
    y = np.array([[1.0, 10.0], [2.0, 20.0], [3.0, 30.0]])
    pred = y.copy()
    pred[:, 1] = 20.0  # second column predicted by its mean -> 0
    assert r2_score(y, pred) == pytest.approx(0.5)


def test_constant_target_conventions():
    y = np.full(5, 3.0)
    assert r2_score(y, y) == 1.0
    assert r2_score(y, y + 1) == 0.0


def test_shape_mismatch_rejected():
    with pytest.raises(ValueError):
        r2_score(np.zeros(3), np.zeros(4))
    with pytest.raises(ValueError):
        r2_score(np.zeros((0,)), np.zeros((0,)))


@given(
    arrays(np.float64, st.integers(min_value=2, max_value=40),
           elements=st.floats(min_value=-1e6, max_value=1e6)),
)
def test_r2_of_identity_property(y):
    assert r2_score(y, y) == 1.0


@given(
    arrays(np.float64, st.integers(min_value=3, max_value=40),
           elements=st.floats(min_value=-1e3, max_value=1e3)),
)
def test_r2_of_mean_at_most_zero_plus_eps(y):
    if np.var(y) == 0.0:
        # Constant targets predicted exactly score 1.0 by convention.
        assert r2_score(y, np.full_like(y, y.mean())) == 1.0
        return
    pred = np.full_like(y, y.mean())
    assert r2_score(y, pred) <= 1e-9
