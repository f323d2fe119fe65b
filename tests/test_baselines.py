"""Tests for the two in-repo baselines: Gaussian naive bayes and batch
gradient-descent logistic regression."""

import hashlib

import numpy as np
import pytest

from frugal.baselines import (logistic_gradient, logistic_loss,
                              lr_predict_dataset, lr_score_dataset, lr_train,
                              nb_predict_dataset, nb_score_dataset, nb_train,
                              _sigmoid, _standardize)
from frugal import synth
from frugal.dataset import LabelRule, binarize
from frugal.errors import TrainingError

import oracles
from conftest import dataset_rows, make_dataset, one_row


# ------------------------------------------------------------- naive bayes

def test_nb_posteriors_match_hand_computed_densities(eight_rows):
    model = nb_train(eight_rows)
    rows = dataset_rows(eight_rows)
    labels = eight_rows.labels.tolist()
    held_out = {"x": 2.5, "y": 33.0, "z": None}
    for row in rows + [held_out]:
        want = oracles.nb_posterior_oracle(rows, labels, row)
        got = nb_score_dataset(model, one_row(eight_rows.attributes, row))[0]
        assert got == pytest.approx(want, abs=1e-9)


def test_nb_separated_clusters_are_classified(six_rows):
    model = nb_train(six_rows)
    preds = nb_predict_dataset(model, six_rows)
    assert preds.tolist() == six_rows.labels.tolist()


def test_nb_single_class_training():
    pos = make_dataset(("a",), [[1], [2], [3]], labels=[True, True, True])
    model = nb_train(pos)
    assert nb_score_dataset(model, one_row(("a",), {"a": 2.0}))[0] == 1.0
    assert nb_predict_dataset(model, one_row(("a",), {"a": 99.0}))[0]
    neg = make_dataset(("a",), [[1], [2], [3]], labels=[False, False, False])
    assert nb_score_dataset(nb_train(neg), one_row(("a",), {"a": 2.0}))[0] \
        == 0.0


def test_nb_constant_column_survives_variance_floor():
    ds = make_dataset(("c", "x"), [[7, 1], [7, 2], [7, 8], [7, 9]],
                      labels=[True, True, False, False])
    model = nb_train(ds)
    assert model.variances.min() >= 1e-6
    probe = make_dataset(("c", "x"), [[7, 1.5], [7, 8.5]], labels=[True, False])
    assert nb_predict_dataset(model, probe).tolist() == [True, False]


def test_nb_ignores_missing_cells_per_class(eight_rows):
    model = nb_train(eight_rows)
    # class True saw z values {3, 4, 5, 2}; the missing cell sat in class False
    rows = eight_rows.values[eight_rows.labels]
    z = rows[:, 2]
    assert model.means[1, 2] == pytest.approx(z.mean())


def test_nb_posterior_invariant_to_row_order(eight_rows):
    model = nb_train(eight_rows)
    shuffled = nb_train(eight_rows.subset([5, 2, 7, 0, 3, 6, 1, 4]))
    for i in range(len(eight_rows)):
        row = eight_rows.subset([i])
        assert nb_score_dataset(shuffled, row)[0] == pytest.approx(
            nb_score_dataset(model, row)[0], abs=1e-12)


def test_nb_validation(toy_csv):
    from frugal.dataset import load_csv
    raw = load_csv(toy_csv, label_column="bug")
    with pytest.raises(TrainingError, match="binarized"):
        nb_train(raw)
    empty = make_dataset(("a",), [], labels=[])
    with pytest.raises(TrainingError, match="empty"):
        nb_train(empty)


def test_nb_schema_mismatch(six_rows, eight_rows):
    model = nb_train(six_rows)
    with pytest.raises(TrainingError, match="attribute mismatch"):
        nb_score_dataset(model, eight_rows)


# SHA-256 of the synthetic set's posteriors as the earlier row-at-a-time
# scorer gave them; squaring with array ``**`` instead of ``pow`` changes one.
NB_SCORES_DIGEST = \
    "024863470262c0f4553d2fd87d7c8466e485e14b6c9a060cae18dfb15c7c727f"


def test_nb_dataset_scoring_matches_row_scoring(eight_rows):
    raw = synth.make_corpus(names=("ant",), seed=6, rows=200)["ant"]
    versions = [binarize(v, LabelRule.bug_counts()) for v in raw[:2]]
    for train, test in [(eight_rows, eight_rows), versions]:
        model = nb_train(train)
        scores = nb_score_dataset(model, test)
        for i in range(len(test)):
            assert scores[i] == nb_score_dataset(model, test.subset([i]))[0]
        assert nb_predict_dataset(model, test).tolist() \
            == [s >= 0.5 for s in scores]
    assert np.isnan(test.values).any()
    assert hashlib.sha256(scores.tobytes()).hexdigest() == NB_SCORES_DIGEST


# ------------------------------------------------------ logistic regression

def test_lr_gradient_matches_finite_differences(five_rows_lr):
    X, _, _ = _standardize(five_rows_lr.values)
    y = five_rows_lr.labels.astype(float)

    def loss(weights, bias):
        return logistic_loss(np.asarray(weights, dtype=float), bias, X, y)

    for weights, bias in [([0.0, 0.0], 0.0),
                          ([0.5, -0.25], 0.1),
                          ([-1.0, 2.0], -0.7),
                          ([0.03, 0.4], 1.5)]:
        gw, gb = logistic_gradient(np.array(weights), bias, X, y)
        fw, fb = oracles.finite_difference_gradient(loss, weights, bias)
        for got, want in zip(list(gw) + [gb], fw + [fb]):
            assert abs(got - want) <= 1e-4 * max(1.0, abs(want))


def test_lr_learns_separable_data(five_rows_lr):
    model = lr_train(five_rows_lr)
    assert lr_predict_dataset(model, five_rows_lr).tolist() \
        == five_rows_lr.labels.tolist()


def test_lr_uninformative_features_fall_back_to_base_rate():
    ds = make_dataset(("a",), [[3], [3], [3]], labels=[True, True, False])
    model = lr_train(ds)
    assert model.weights.tolist() == [0.0]      # zero column after scaling
    probe = one_row(("a",), {"a": 3.0})
    assert lr_score_dataset(model, probe)[0] == pytest.approx(2.0 / 3.0,
                                                              abs=1e-3)
    assert lr_predict_dataset(model, probe)[0]


def test_lr_invariant_to_power_of_two_feature_scaling(five_rows_lr):
    base = lr_train(five_rows_lr)
    scaled_ds = make_dataset(
        ("u", "v"), (five_rows_lr.values * 4.0).tolist(),
        labels=five_rows_lr.labels.tolist())
    scaled = lr_train(scaled_ds)
    for i in range(len(five_rows_lr)):
        assert lr_score_dataset(scaled, scaled_ds.subset([i]))[0] \
            == lr_score_dataset(base, five_rows_lr.subset([i]))[0]


def test_lr_missing_cells_standardize_to_zero(five_rows_lr):
    model = lr_train(five_rows_lr)
    # a fully missing row sits at the feature means: probability sigmoid(bias)
    p = lr_score_dataset(model, one_row(("u", "v"), {"u": None, "v": None}))[0]
    assert p == pytest.approx(1.0 / (1.0 + np.exp(-model.bias)), abs=1e-12)


@pytest.mark.parametrize("size", [1, 108, 1320])
def test_sigmoid_is_bit_identical_to_the_masked_formula(size):
    rng = np.random.default_rng(size)
    specials = np.array([0.0, -0.0, np.inf, -np.inf, 1e3, -1e3, 745.2,
                         -745.2, 800.0, -800.0, 5e-324, -5e-324])
    for scale in (1.0, 30.0, 1e3):
        z = rng.uniform(-scale, scale, size)
        z[:min(size, len(specials))] = specials[:size]
        got, want = _sigmoid(z), oracles.masked_sigmoid(z)
        assert got.dtype == want.dtype == np.float64
        assert np.array_equal(got.view(np.int64), want.view(np.int64))


def test_sigmoid_keeps_nan():
    out = _sigmoid(np.array([np.nan, 0.0, -np.nan]))
    assert np.isnan(out[0]) and out[1] == 0.5 and np.isnan(out[2])


def test_lr_training_is_deterministic(five_rows_lr):
    a = lr_train(five_rows_lr)
    b = lr_train(five_rows_lr)
    assert a.weights.tolist() == b.weights.tolist()
    assert a.bias == b.bias


def test_lr_validation(toy_csv):
    from frugal.dataset import load_csv
    raw = load_csv(toy_csv, label_column="bug")
    with pytest.raises(TrainingError, match="binarized"):
        lr_train(raw)
    single = make_dataset(("a",), [[1], [2]], labels=[True, True])
    with pytest.raises(TrainingError, match="both classes"):
        lr_train(single)
    empty = make_dataset(("a",), [], labels=[])
    with pytest.raises(TrainingError, match="empty"):
        lr_train(empty)


def test_lr_schema_mismatch(five_rows_lr, six_rows):
    model = lr_train(five_rows_lr)
    with pytest.raises(TrainingError, match="attribute mismatch"):
        lr_score_dataset(model, six_rows)


def test_lr_dataset_scoring_matches_row_scoring(five_rows_lr):
    model = lr_train(five_rows_lr)
    scores = lr_score_dataset(model, five_rows_lr)
    for i in range(len(five_rows_lr)):
        assert scores[i] == pytest.approx(
            lr_score_dataset(model, five_rows_lr.subset([i]))[0], abs=1e-12)
