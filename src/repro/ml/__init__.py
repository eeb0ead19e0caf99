"""From-scratch statistical learning algorithms (NumPy only).

Implements the five regression families the paper compares in Table I —
Linear, Polynomial, K-Nearest-Neighbor, Decision-Tree (CART) and
Random-Forest regression — plus the evaluation machinery: coefficient of
determination (R²), train/validation splitting, k-fold cross-validation
and Breiman (mean-decrease-in-impurity) feature importance used in
§III-B's feature analysis.

All estimators follow a small common protocol (:class:`Regressor`):
``fit(X, y) -> self`` and ``predict(X) -> np.ndarray``, with 2-D ``X`` of
shape ``(n_samples, n_features)`` and multi-output ``y`` of shape
``(n_samples,)`` or ``(n_samples, n_outputs)`` — the TPM predicts read
and write throughput jointly.
"""

from repro.ml.base import Regressor, check_Xy
from repro.ml.metrics import r2_score
from repro.ml.model_selection import KFold, cross_val_score, train_test_split
from repro.ml.linear import LinearRegression
from repro.ml.polynomial import PolynomialRegression, polynomial_features
from repro.ml.knn import KNeighborsRegressor
from repro.ml.tree import DecisionTreeRegressor
from repro.ml.forest import RandomForestRegressor

__all__ = [
    "Regressor",
    "check_Xy",
    "r2_score",
    "train_test_split",
    "KFold",
    "cross_val_score",
    "LinearRegression",
    "PolynomialRegression",
    "polynomial_features",
    "KNeighborsRegressor",
    "DecisionTreeRegressor",
    "RandomForestRegressor",
]
