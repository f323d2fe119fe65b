"""Tests for the two in-repo baselines: Gaussian naive bayes and batch
gradient-descent logistic regression."""

import dataclasses
import hashlib
import warnings

import numpy as np
import pytest

from frugal.baselines import (logistic_gradient, lr_score_dataset, lr_train,
                              lr_train_many, nb_score_dataset, nb_train,
                              _sigmoid)
from frugal import operational, synth
from frugal.dataset import LabelRule, binarize, merge
from frugal.errors import TrainingError
from frugal.rig import cross_val_plans

import oracles
from conftest import (dataset_rows, lr_gradient_stack, make_dataset,
                      one_row)


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
    preds = nb_score_dataset(model, six_rows) >= 0.5
    assert preds.tolist() == six_rows.labels.tolist()


def test_nb_single_class_training():
    pos = make_dataset(("a",), [[1], [2], [3]], labels=[True, True, True])
    model = nb_train(pos)
    assert nb_score_dataset(model, one_row(("a",), {"a": 2.0}))[0] == 1.0
    assert nb_score_dataset(model, one_row(("a",), {"a": 99.0}))[0] >= 0.5
    neg = make_dataset(("a",), [[1], [2], [3]], labels=[False, False, False])
    assert nb_score_dataset(nb_train(neg), one_row(("a",), {"a": 2.0}))[0] \
        == 0.0


def test_nb_constant_column_survives_variance_floor():
    ds = make_dataset(("c", "x"), [[7, 1], [7, 2], [7, 8], [7, 9]],
                      labels=[True, True, False, False])
    model = nb_train(ds)
    assert model.variances.min() >= 1e-6
    probe = make_dataset(("c", "x"), [[7, 1.5], [7, 8.5]], labels=[True, False])
    assert (nb_score_dataset(model, probe) >= 0.5).tolist() == [True, False]


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


# a column whose per-class mean overflows, beside two ordinary ones; the
# suite's RuntimeWarning-as-error filter turns an overflow warning into
# a failure
HUGE_ROWS = [[1e308, 1, 5], [1.2e308, 2, 3], [1.5e308, 8, 4],
             [1.7e308, 9, 1], [1.1e308, 3, 2]]
HUGE_LABELS = [True, True, False, False, False]


def _with_and_without_the_huge_column():
    return (make_dataset(("big", "x", "y"), HUGE_ROWS, labels=HUGE_LABELS),
            make_dataset(("x", "y"), [r[1:] for r in HUGE_ROWS],
                         labels=HUGE_LABELS))


def test_nb_reads_an_overflowing_column_as_unobserved():
    huge, rest = _with_and_without_the_huge_column()
    model = nb_train(huge)
    assert np.isnan(model.means[:, 0]).all()
    assert model.variances[:, 0].tolist() == [1e-6, 1e-6]
    assert nb_score_dataset(model, huge).tolist() \
        == nb_score_dataset(nb_train(rest), rest).tolist()


def test_nb_scores_a_row_whose_terms_overflow_by_the_finite_classes():
    # x is observed for negatives only, so a huge x sends the negative
    # log joint to -inf and leaves the positive one finite
    ds = make_dataset(("x", "y"), [[None, 1], [None, 2], [8, 7], [9, 8]],
                      labels=[True, True, False, False])
    model = nb_train(ds)
    probe = make_dataset(("x", "y"), [[1e200, 1], [1e200, 1e200], [8.5, 7]],
                         labels=[True, True, False])
    assert nb_score_dataset(model, probe)[:2].tolist() == [1.0, 0.0]
    assert nb_score_dataset(model, probe)[2] < 0.5


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
    assert np.isnan(test.values).any()
    assert hashlib.sha256(scores.tobytes()).hexdigest() == NB_SCORES_DIGEST


# ------------------------------------------------------ logistic regression

def test_lr_gradient_matches_finite_differences(five_rows_lr):
    X, y, params = lr_gradient_stack(five_rows_lr)
    for weights, bias in params:
        gw, gb = logistic_gradient(weights, bias, X, y)
        assert gw.shape == weights.shape and gb.shape == bias.shape
        for k in range(len(X)):

            def loss(w, b, _k=k):
                return oracles.logistic_loss(np.asarray(w, dtype=float), b,
                                             X[_k], y[_k])

            fw, fb = oracles.finite_difference_gradient(
                loss, weights[k, :, 0].tolist(), float(bias[k, 0]))
            for got, want in zip(gw[k, :, 0].tolist() + [gb[k, 0]],
                                 fw + [fb]):
                assert abs(got - want) <= 1e-4 * max(1.0, abs(want))
            # a fit's gradient does not depend on the batch it is in
            one = logistic_gradient(weights[k:k + 1], bias[k:k + 1],
                                    X[k:k + 1], y[k:k + 1])
            assert np.array_equal(one[0], gw[k:k + 1])
            assert np.array_equal(one[1], gb[k:k + 1])


def _assert_is_oracle_fit(model, train):
    weights, bias, means, stds = oracles.lr_train_oracle(train)
    assert model.attributes == train.attributes
    assert np.array_equal(model.weights, weights)
    assert model.bias == bias and isinstance(model.bias, float)
    assert np.array_equal(model.feature_means, means)
    assert np.array_equal(model.feature_stds, stds)


def _cv_folds():
    """Ten 194/195-row training folds of a 216-row set with missing
    cells."""
    raw = synth.make_corpus(names=("ant",), seed=6, rows=80)["ant"]
    data = merge([binarize(v, LabelRule.bug_counts()) for v in raw])
    data = data.subset(np.arange(216))
    assert np.isnan(data.values).any()
    return [data.subset(train) for _, _, train, _ in
            cross_val_plans(len(data), bins=10, repeats=1, seed=3)]


def test_lr_train_many_equals_the_per_fit_loop():
    folds = _cv_folds()
    assert sorted({len(f) for f in folds}) == [194, 195]
    models = lr_train_many(folds)
    assert len(models) == len(folds)
    for model, fold in zip(models, folds):
        _assert_is_oracle_fit(model, fold)
    # a batch of one, through both entries
    _assert_is_oracle_fit(lr_train_many(folds[3:4])[0], folds[3])
    _assert_is_oracle_fit(lr_train(folds[3]), folds[3])


def test_lr_train_many_keeps_input_order_over_mixed_shapes():
    folds = _cv_folds()
    # a projected set is stored row-major, like every dataset
    narrow = [operational.project(f, f.attributes[:5]) for f in folds[:3]]
    assert narrow[0].values.flags.c_contiguous
    rng = np.random.default_rng(16)
    values = rng.normal(size=(40, 3))
    values[:, 1] = 7.0                                  # a constant column
    values[rng.random((40, 3)) < 0.1] = np.nan          # missing cells
    constant = make_dataset(("a", "c", "b"), values.tolist(),
                            labels=(rng.random(40) < 0.4).tolist(),
                            name="constant")
    trains = [folds[0], narrow[0], constant, folds[1], narrow[1], folds[2],
              narrow[2], folds[9]]
    models = lr_train_many(trains)
    for model, train in zip(models, trains):
        _assert_is_oracle_fit(model, train)
    assert models[2].weights[1] == 0.0      # zero column after scaling


def test_lr_all_missing_column_has_zero_weight_and_no_warning():
    folds = _cv_folds()
    trains = []
    for fold in folds[:3]:
        values = np.array(fold.values)
        values[:, 2] = np.nan
        trains.append(dataclasses.replace(fold, values=values))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        models = [lr_train(trains[0])] + lr_train_many(trains[1:])
    for model, train in zip(models, trains):
        assert model.feature_means[2] == 0.0
        assert model.feature_stds[2] == 1.0
        assert model.weights[2] == 0.0
        # the oracle's nan-reductions warn on the empty column; its other
        # columns must match bit for bit
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            _assert_is_oracle_fit(model, train)


def test_lr_train_many_checks_every_set_in_input_order(five_rows_lr):
    single = make_dataset(("a",), [[1], [2]], labels=[True, True],
                          name="single")
    empty = make_dataset(("a",), [], labels=[], name="empty")
    with pytest.raises(TrainingError, match="single: .*both classes"):
        lr_train_many([five_rows_lr, single, empty])
    with pytest.raises(TrainingError, match="empty: empty training set"):
        lr_train_many([five_rows_lr, empty, single])
    assert lr_train_many([]) == []


def test_lr_learns_separable_data(five_rows_lr):
    model = lr_train(five_rows_lr)
    assert (lr_score_dataset(model, five_rows_lr) >= 0.5).tolist() \
        == five_rows_lr.labels.tolist()


def test_lr_uninformative_features_fall_back_to_base_rate():
    ds = make_dataset(("a",), [[3], [3], [3]], labels=[True, True, False])
    model = lr_train(ds)
    assert model.weights.tolist() == [0.0]      # zero column after scaling
    probe = one_row(("a",), {"a": 3.0})
    assert lr_score_dataset(model, probe)[0] == pytest.approx(2.0 / 3.0,
                                                              abs=1e-3)
    assert lr_score_dataset(model, probe)[0] >= 0.5


def test_lr_invariant_to_power_of_two_feature_scaling(five_rows_lr):
    base = lr_train(five_rows_lr)
    scaled_ds = make_dataset(
        ("u", "v"), (five_rows_lr.values * 4.0).tolist(),
        labels=five_rows_lr.labels.tolist())
    scaled = lr_train(scaled_ds)
    for i in range(len(five_rows_lr)):
        assert lr_score_dataset(scaled, scaled_ds.subset([i]))[0] \
            == lr_score_dataset(base, five_rows_lr.subset([i]))[0]


def test_lr_standardizes_an_overflowing_column_to_zeros():
    huge, rest = _with_and_without_the_huge_column()
    model, alone = lr_train(huge), lr_train(rest)
    assert (model.weights[0], model.feature_means[0],
            model.feature_stds[0]) == (0.0, 0.0, 1.0)
    assert model.feature_means[1:].tolist() == alone.feature_means.tolist()
    assert model.feature_stds[1:].tolist() == alone.feature_stds.tolist()
    # the two designs differ in shape, so BLAS may sum in another order
    assert model.weights[1:] == pytest.approx(alone.weights, abs=1e-12)
    assert lr_score_dataset(model, huge) \
        == pytest.approx(lr_score_dataset(alone, rest), abs=1e-12)


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
