"""In-repo comparison learners: Gaussian Naive Bayes and a simple logistic
regression.

Each ``*_score_dataset`` gives P(positive) per row, the per-row score of
every learner (``fft.score_dataset`` for trees): 0.5 or more predicts
true, and Popt ranks rows by it.  Missing cells add nothing to a
naive-bayes log joint and standardize to the attribute mean for logistic
regression; a column whose statistics overflow is treated the same way.
Logistic fits have one path, ``lr_train_many``, which descends same-shaped
sets as one stacked block; ``lr_train`` is a batch of one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .dataset import Dataset
from .errors import TrainingError

VARIANCE_FLOOR = 1e-6
LOG_2PI = math.log(2.0 * math.pi)
# lr_train_many's full-batch gradient descent.
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
    ``VARIANCE_FLOOR`` so constant columns survive.  A column whose mean
    or variance for a class overflows reads as unobserved for that class.
    """
    check_trainable(train)
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
            with np.errstate(over="ignore", invalid="ignore"):
                mean, var = col.mean(), float(col.var())
            if np.isfinite(mean) and np.isfinite(var):
                means[k, j] = mean
                variances[k, j] = max(var, VARIANCE_FLOOR)
    return NBModel(attributes=train.attributes, log_priors=log_priors,
                   means=means, variances=variances)


def nb_score_dataset(model: NBModel, data: Dataset) -> np.ndarray:
    """P(positive) for each row.  A row's log joint adds its observed
    attributes' terms to the log prior one column at a time, so it scores
    the same alone or in any batch.  ``np.float_power`` squares with the C
    library's ``pow``, like scalar ``**``; array ``**`` multiplies, which
    can round differently.  A term that overflows is -inf, and a row
    whose log joint is infinite scores by which classes stay finite."""
    _check_schema(model.attributes, data)
    log_vars = [[math.log(v) for v in row] for row in model.variances.tolist()]
    joint = np.tile(model.log_priors, (len(data), 1))
    with np.errstate(over="ignore"):
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


@dataclass(frozen=True)
class LogisticModel:
    attributes: tuple[str, ...]
    weights: np.ndarray
    bias: float
    feature_means: np.ndarray
    feature_stds: np.ndarray


def _sigmoid(z: np.ndarray) -> np.ndarray:
    """1 / (1 + e^-z) for z >= 0 and e^z / (1 + e^z) below, so exp never
    overflows; one exp and one division over the whole array, with the
    temporaries reused in place."""
    e = np.abs(z)
    np.negative(e, out=e)
    np.exp(e, out=e)
    out = np.where(z >= 0, 1.0, e)
    e += 1.0
    out /= e
    return out


def logistic_gradient(weights: np.ndarray, bias: np.ndarray, X: np.ndarray,
                      y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Gradient in (weights, bias) of each fit's mean cross-entropy
    ``mean(log(1 + exp(z)) - y * z)``, ``z = X @ weights + bias``, on
    stacked, already standardized designs: ``X`` is (fits x rows x
    attributes), ``y`` (fits x rows), ``weights`` (fits x attributes x 1)
    and ``bias`` (fits x 1); the gradients have the shapes of the last
    two.  Each fit's products are the matrix-vector products of a lone
    fit, so a fit's gradient does not depend on its batch."""
    n = X.shape[1]
    z = (X @ weights)[:, :, 0]
    z += bias
    err = _sigmoid(z)
    err -= y
    return ((X.transpose(0, 2, 1) @ err[:, :, None]) / n,
            np.add.reduce(err, axis=1, keepdims=True) / n)


def _standardize(values: np.ndarray, out: np.ndarray | None = None):
    """(design, means, stds): each column centred and scaled, missing
    cells at 0; written into ``out`` when given.  A column with no
    observed cell, or whose mean or std overflows, reads as zeros, so its
    mean is 0 and its std 1 (without the nan-reductions' empty-slice
    warnings) and its weight stays 0."""
    observed = ~np.isnan(values).all(axis=0)
    if not observed.all():
        values = np.where(observed, values, 0.0)
    with np.errstate(over="ignore", invalid="ignore"):
        means = np.nanmean(values, axis=0)
        stds = np.nanstd(values, axis=0)
    finite = np.isfinite(means) & np.isfinite(stds)
    if not finite.all():
        values = np.where(finite, values, 0.0)
        means, stds = np.where(finite, means, 0.0), np.where(finite, stds, 0.0)
    stds = np.where(stds == 0, 1.0, stds)
    return _scaled(values, means, stds, out), means, stds


def _scaled(values: np.ndarray, means: np.ndarray, stds: np.ndarray,
            out: np.ndarray | None = None) -> np.ndarray:
    X = np.subtract(values, means, out=out)
    X /= stds
    X[np.isnan(X)] = 0.0
    return X


def lr_targets(train: Dataset) -> np.ndarray:
    """The 0/1 labels of a set logistic regression can train on; raises
    ``TrainingError`` when it cannot."""
    check_trainable(train)
    y = train.labels.astype(float)
    if y.min() == y.max():
        raise TrainingError(
            f"{train.name}: logistic regression needs both classes present")
    return y


def lr_train_many(trains: list[Dataset]) -> list[LogisticModel]:
    """Full-batch gradient descent from zero weights on standardized
    features, one model per training set, in input order; deterministic,
    no regularization.  Missing cells standardize to 0 (the attribute
    mean).  Every set is checked before any descent runs.

    Sets whose designs share a shape descend together as one stacked
    block, so each model equals the one its set gives alone."""
    targets = [lr_targets(train) for train in trains]
    groups: dict[tuple, list[int]] = {}
    for i, train in enumerate(trains):
        groups.setdefault(train.values.shape, []).append(i)
    models: list[LogisticModel] = [None] * len(trains)
    for (rows, n_attrs), members in groups.items():
        X = np.empty((len(members), rows, n_attrs))
        y = np.empty((len(members), rows))
        scales = []
        for k, i in enumerate(members):
            scales.append(_standardize(trains[i].values, out=X[k])[1:])
            y[k] = targets[i]
        weights = np.zeros((len(members), n_attrs, 1))
        bias = np.zeros((len(members), 1))
        for _ in range(EPOCHS):
            gw, gb = logistic_gradient(weights, bias, X, y)
            weights -= LEARNING_RATE * gw
            bias -= LEARNING_RATE * gb
        for k, i in enumerate(members):
            models[i] = LogisticModel(
                attributes=trains[i].attributes,
                weights=weights[k, :, 0].copy(), bias=float(bias[k, 0]),
                feature_means=scales[k][0], feature_stds=scales[k][1])
    return models


def lr_train(train: Dataset) -> LogisticModel:
    """``lr_train_many`` on one training set."""
    return lr_train_many([train])[0]


def lr_score_dataset(model: LogisticModel, data: Dataset) -> np.ndarray:
    """P(positive) for each row; missing cells standardize to 0."""
    _check_schema(model.attributes, data)
    with np.errstate(over="ignore"):    # a logit past the range is +-inf
        X = _scaled(data.values, model.feature_means, model.feature_stds)
        return _sigmoid(X @ model.weights + model.bias)


def check_trainable(train: Dataset):
    """TrainingError unless a baseline can train on this set."""
    if not train.binary:
        raise TrainingError(f"{train.name}: labels must be binarized first")
    if len(train) == 0:
        raise TrainingError(f"{train.name}: empty training set")


def _check_schema(attributes, data: Dataset):
    if tuple(data.attributes) != tuple(attributes):
        raise TrainingError(
            f"{data.name}: attribute mismatch with the trained model "
            f"(model: {list(attributes)}, data: {list(data.attributes)})")
