"""In-repo comparison learners: Gaussian Naive Bayes and a simple logistic
regression, sharing the train/predict surface of the tree code.

Each learner has one array scorer over a (rows x attributes) block, which
its ``*_score_dataset`` function calls on a dataset.  Missing cells add
nothing to a naive-bayes log joint and standardize to the attribute mean
for logistic regression.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .dataset import Dataset
from .errors import TrainingError

VARIANCE_FLOOR = 1e-6
LOG_2PI = math.log(2.0 * math.pi)
# lr_train's full-batch gradient descent.
EPOCHS = 500
LEARNING_RATE = 0.1


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


def nb_score_dataset(model: NBModel, data: Dataset) -> np.ndarray:
    """P(positive) for each row.  A row's log joint adds its observed
    attributes' terms to the log prior one column at a time, so it scores
    the same alone or in any batch.  ``np.float_power`` squares with the C
    library's ``pow``, like scalar ``**``; array ``**`` multiplies, which
    can round differently."""
    _check_schema(model.attributes, data)
    log_vars = [[math.log(v) for v in row] for row in model.variances.tolist()]
    joint = np.tile(model.log_priors, (len(data), 1))
    for j, col in enumerate(data.values.T):
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
    """1 / (1 + e^-z) for z >= 0 and e^z / (1 + e^z) below, so exp never
    overflows; one exp and one division over the whole array."""
    e = np.exp(-np.abs(z))
    return np.where(z >= 0, 1.0, e) / (1.0 + e)


def logistic_gradient(weights: np.ndarray, bias: float, X: np.ndarray,
                      y: np.ndarray) -> tuple[np.ndarray, float]:
    """Gradient in (weights, bias) of the mean cross-entropy
    ``mean(log(1 + exp(z)) - y * z)``, ``z = X @ weights + bias``, on an
    already standardized design matrix."""
    err = _sigmoid(X @ weights + bias) - y
    return X.T @ err / len(y), float(err.mean())


def _standardize(values: np.ndarray):
    means = np.nanmean(values, axis=0)
    stds = np.nanstd(values, axis=0)
    means = np.where(np.isnan(means), 0.0, means)
    stds = np.where((stds == 0) | np.isnan(stds), 1.0, stds)
    X = (values - means) / stds
    return np.where(np.isnan(X), 0.0, X), means, stds


def lr_train(train: Dataset) -> LogisticModel:
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
    for _ in range(EPOCHS):
        gw, gb = logistic_gradient(weights, bias, X, y)
        weights -= LEARNING_RATE * gw
        bias -= LEARNING_RATE * gb
    return LogisticModel(attributes=train.attributes, weights=weights,
                         bias=bias, feature_means=means, feature_stds=stds)


def lr_score_dataset(model: LogisticModel, data: Dataset) -> np.ndarray:
    """P(positive) for each row; missing cells standardize to 0."""
    _check_schema(model.attributes, data)
    X = (data.values - model.feature_means) / model.feature_stds
    X = np.where(np.isnan(X), 0.0, X)
    return _sigmoid(X @ model.weights + model.bias)


def lr_predict_dataset(model: LogisticModel, data: Dataset) -> np.ndarray:
    return lr_score_dataset(model, data) >= 0.5


def _check_schema(attributes, data: Dataset):
    if tuple(data.attributes) != tuple(attributes):
        raise TrainingError(
            f"{data.name}: attribute mismatch with the trained model "
            f"(model: {list(attributes)}, data: {list(data.attributes)})")
