"""In-repo comparison learners: Gaussian Naive Bayes and a simple logistic
regression, sharing the train/predict surface of the tree code.

Each learner has one array scorer over a (rows x attributes) block; the
``*_score_dataset`` functions call it on a dataset and the row functions
(``nb_posterior``, ``lr_probability`` and their ``*_predict`` forms) call
it on a single row.  Missing cells add nothing to a naive-bayes log joint
and standardize to the attribute mean for logistic regression.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .dataset import Dataset
from .errors import TrainingError

VARIANCE_FLOOR = 1e-6
LOG_2PI = math.log(2.0 * math.pi)


@dataclass(frozen=True)
class NBModel:
    """Per-class priors and per-attribute normal likelihoods.

    ``means``/``variances`` rows are [negative, positive]; a NaN mean marks
    an attribute with no observed values for that class.
    """

    attributes: tuple[str, ...]
    log_priors: np.ndarray    # shape (2,), -inf for an absent class
    means: np.ndarray         # shape (2, n_attrs)
    variances: np.ndarray     # shape (2, n_attrs), floored

    @property
    def classes(self) -> tuple[bool, bool]:
        return (False, True)


def nb_train(train: Dataset) -> NBModel:
    """Fit Gaussian likelihoods per class and attribute.

    Missing cells are ignored per attribute; variances are floored at
    ``VARIANCE_FLOOR`` so constant columns survive.
    """
    if not train.binary:
        raise TrainingError(f"{train.name}: labels must be binarized first")
    if len(train) == 0:
        raise TrainingError(f"{train.name}: empty training set")
    n_attrs = len(train.attributes)
    log_priors = np.full(2, -np.inf)
    means = np.full((2, n_attrs), np.nan)
    variances = np.full((2, n_attrs), VARIANCE_FLOOR)
    for k, flag in enumerate((False, True)):
        rows = train.values[train.labels == flag]
        if len(rows) == 0:
            continue
        log_priors[k] = math.log(len(rows) / len(train))
        for j in range(n_attrs):
            col = rows[:, j]
            col = col[~np.isnan(col)]
            if len(col) == 0:
                continue
            means[k, j] = col.mean()
            variances[k, j] = max(float(col.var()), VARIANCE_FLOOR)
    return NBModel(attributes=train.attributes, log_priors=log_priors,
                   means=means, variances=variances)


def _nb_scores(model: NBModel, values: np.ndarray) -> np.ndarray:
    """P(positive) for each row of a (rows x attributes) block.  A row's log
    joint adds its observed attributes' terms to the log prior one column
    at a time, so it scores the same alone or in any batch.
    ``np.float_power`` squares with the C library's ``pow``, like scalar
    ``**``; array ``**`` multiplies, which can round differently."""
    log_vars = [[math.log(v) for v in row] for row in model.variances.tolist()]
    joint = np.tile(model.log_priors, (len(values), 1))
    for j, col in enumerate(values.T):
        missing = np.isnan(col)
        for k in range(2):
            mu = model.means[k, j]
            if np.isnan(mu):
                continue
            var = model.variances[k, j]
            term = (-0.5 * (LOG_2PI + log_vars[k][j])
                    - np.float_power(col - mu, 2.0) / (2 * var))
            joint[:, k] += np.where(missing, 0.0, term)
    scores = np.where(np.isfinite(joint[:, 1]), 1.0, 0.0)
    both = np.isfinite(joint).all(axis=1)
    weights = np.exp(joint[both] - joint[both].max(axis=1, keepdims=True))
    scores[both] = weights[:, 1] / (weights[:, 0] + weights[:, 1])
    return scores


def nb_posterior(model: NBModel, row) -> float:
    """P(positive | row), with missing attributes skipped."""
    return float(_nb_scores(model, _row_values(model.attributes, row))[0])


def nb_predict(model: NBModel, row) -> bool:
    return nb_posterior(model, row) >= 0.5


def nb_score_dataset(model: NBModel, data: Dataset) -> np.ndarray:
    _check_schema(model.attributes, data)
    return _nb_scores(model, data.values)


def nb_predict_dataset(model: NBModel, data: Dataset) -> np.ndarray:
    return nb_score_dataset(model, data) >= 0.5


@dataclass(frozen=True)
class LogisticModel:
    attributes: tuple[str, ...]
    weights: np.ndarray
    bias: float
    feature_means: np.ndarray
    feature_stds: np.ndarray


def _sigmoid(z: np.ndarray) -> np.ndarray:
    out = np.empty_like(z, dtype=float)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


def logistic_loss(weights: np.ndarray, bias: float, X: np.ndarray,
                  y: np.ndarray) -> float:
    """Mean cross-entropy on an already standardized design matrix."""
    z = X @ weights + bias
    return float(np.mean(np.logaddexp(0.0, z) - y * z))


def logistic_gradient(weights: np.ndarray, bias: float, X: np.ndarray,
                      y: np.ndarray) -> tuple[np.ndarray, float]:
    """Analytic gradient of :func:`logistic_loss` in (weights, bias)."""
    err = _sigmoid(X @ weights + bias) - y
    return X.T @ err / len(y), float(err.mean())


def _standardize(values: np.ndarray):
    means = np.nanmean(values, axis=0)
    stds = np.nanstd(values, axis=0)
    means = np.where(np.isnan(means), 0.0, means)
    stds = np.where((stds == 0) | np.isnan(stds), 1.0, stds)
    X = (values - means) / stds
    return np.where(np.isnan(X), 0.0, X), means, stds


def lr_train(train: Dataset, epochs: int = 500,
             learning_rate: float = 0.1) -> LogisticModel:
    """Full-batch gradient descent from zero weights on standardized
    features; deterministic, no regularization.  Missing cells standardize
    to 0 (the attribute mean)."""
    if not train.binary:
        raise TrainingError(f"{train.name}: labels must be binarized first")
    if len(train) == 0:
        raise TrainingError(f"{train.name}: empty training set")
    y = train.labels.astype(float)
    if y.min() == y.max():
        raise TrainingError(
            f"{train.name}: logistic regression needs both classes present")
    X, means, stds = _standardize(train.values)
    weights = np.zeros(X.shape[1])
    bias = 0.0
    for _ in range(epochs):
        gw, gb = logistic_gradient(weights, bias, X, y)
        weights -= learning_rate * gw
        bias -= learning_rate * gb
    return LogisticModel(attributes=train.attributes, weights=weights,
                         bias=bias, feature_means=means, feature_stds=stds)


def _lr_scores(model: LogisticModel, values: np.ndarray) -> np.ndarray:
    """P(positive) for each row of a (rows x attributes) block."""
    X = (values - model.feature_means) / model.feature_stds
    X = np.where(np.isnan(X), 0.0, X)
    return _sigmoid(X @ model.weights + model.bias)


def lr_probability(model: LogisticModel, row) -> float:
    return float(_lr_scores(model, _row_values(model.attributes, row))[0])


def lr_predict(model: LogisticModel, row) -> bool:
    return lr_probability(model, row) >= 0.5


def lr_score_dataset(model: LogisticModel, data: Dataset) -> np.ndarray:
    _check_schema(model.attributes, data)
    return _lr_scores(model, data.values)


def lr_predict_dataset(model: LogisticModel, data: Dataset) -> np.ndarray:
    return lr_score_dataset(model, data) >= 0.5


def _row_values(attributes, row) -> np.ndarray:
    """One row as a (1 x attributes) block; absent and None cells are NaN."""
    if hasattr(row, "get"):
        row = [row.get(a) for a in attributes]
    return np.array(row, dtype=float, ndmin=2)


def _check_schema(attributes, data: Dataset):
    if tuple(data.attributes) != tuple(attributes):
        raise TrainingError(
            f"{data.name}: attribute mismatch with the trained model "
            f"(model: {list(attributes)}, data: {list(data.attributes)})")
