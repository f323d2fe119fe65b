"""Tests for confusion metrics, effort-aware Popt and rank statistics."""

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from frugal import metrics
from frugal.errors import UnsupportedScoreError
from frugal.metrics import (Confusion, a12, dis2heaven,
                            effort_order_from_predictions,
                            effort_order_from_scores, far, mann_whitney, popt,
                            recall, recall_at_20, score_function)

import oracles

bools = st.lists(st.booleans(), min_size=1, max_size=40)


# --------------------------------------------------------------- confusion

def test_confusion_counts_by_hand():
    c = Confusion.from_predictions(predicted=[True, True, False, False],
                                   actual=[True, False, False, True])
    assert (c.tp, c.fp, c.tn, c.fn) == (1, 1, 1, 1)


@settings(max_examples=80)
@given(bools, bools)
def test_confusion_matches_counting_oracle(predicted, actual):
    n = min(len(predicted), len(actual))
    predicted, actual = predicted[:n], actual[:n]
    c = Confusion.from_predictions(predicted, actual)
    want = oracles.confusion_counts(predicted, actual)
    assert (c.tp, c.fp, c.tn, c.fn) == (want["tp"], want["fp"],
                                        want["tn"], want["fn"])


def test_recall_and_far_simple_ratios():
    c = Confusion(tp=3, fp=1, tn=3, fn=1)
    assert recall(c) == 0.75
    assert far(c) == 0.25
    assert recall(Confusion(tp=5, fp=0, tn=0, fn=0)) == 1.0
    assert recall(Confusion(tp=0, fp=0, tn=0, fn=5)) == 0.0
    assert far(Confusion(tp=0, fp=9, tn=0, fn=0)) == 1.0
    assert far(Confusion(tp=0, fp=0, tn=9, fn=0)) == 0.0


def test_recall_and_far_undefined_defaults():
    no_pos = Confusion(tp=0, fp=2, tn=3, fn=0)
    assert recall(no_pos) == 1.0
    no_neg = Confusion(tp=2, fp=0, tn=0, fn=1)
    assert far(no_neg) == 0.0


def test_dis2heaven_corners_and_midpoint():
    assert dis2heaven(Confusion(tp=4, fp=0, tn=4, fn=0)) == 0.0
    assert dis2heaven(Confusion(tp=0, fp=4, tn=0, fn=4)) == 1.0
    # recall 0.8, false-alarm 0.2 sits symmetric around heaven: distance 0.2
    mid = Confusion(tp=4, fn=1, fp=1, tn=4)
    assert dis2heaven(mid) == pytest.approx(0.2, abs=1e-12)


@settings(max_examples=80)
@given(bools, bools)
def test_dis2heaven_matches_oracle(predicted, actual):
    n = min(len(predicted), len(actual))
    predicted, actual = predicted[:n], actual[:n]
    c = Confusion.from_predictions(predicted, actual)
    assert dis2heaven(c) == oracles.d2h_from_predictions(predicted, actual)


@settings(max_examples=80)
@given(bools, bools)
def test_one_class_is_a_test_set_without_both_classes(predicted, actual):
    n = min(len(predicted), len(actual))
    predicted, actual = predicted[:n], actual[:n]
    c = Confusion.from_predictions(predicted, actual)
    assert metrics.one_class(c) == (all(actual) or not any(actual))


def test_dis2heaven_values_equal_the_scalar_oracle():
    """Every (tp, called) on every small (pos, neg), empty classes
    included, then a seeded sample of large ones: one array call each, each
    value equal to the scalar formula's float."""
    cases = [(tp, called, pos, neg)
             for pos in range(9) for neg in range(9)
             for tp in range(pos + 1) for called in range(tp, tp + neg + 1)]
    rng = np.random.default_rng(11)
    pos, neg = rng.integers(0, 5000, 500), rng.integers(0, 5000, 500)
    tp = rng.integers(0, pos + 1)
    cases += zip(tp, tp + rng.integers(0, neg + 1), pos, neg)
    tp, called, pos, neg = np.array(cases).T
    assert (pos == 0).any() and (neg == 0).any()
    got = metrics.dis2heaven_values(tp, called, pos, neg).tolist()
    want = [oracles.d2h_of({"tp": t, "fp": c - t, "tn": n - c + t,
                            "fn": p - t})
            for t, c, p, n in zip(tp.tolist(), called.tolist(),
                                  pos.tolist(), neg.tolist())]
    assert got == want
    # scalar pos and neg broadcast against arrays of classifiers
    assert metrics.dis2heaven_values([0, 3, 3], [0, 3, 8], 3, 5).tolist() \
        == [oracles.d2h_of({"tp": t, "fp": c - t, "tn": 5 - c + t,
                            "fn": 3 - t}) for t, c in [(0, 0), (3, 3), (3, 8)]]


@settings(max_examples=60)
@given(bools)
def test_dis2heaven_invariant_under_class_flip(flags):
    actual = flags
    predicted = flags[::-1]
    a = dis2heaven(Confusion.from_predictions(predicted, actual))
    b = dis2heaven(Confusion.from_predictions(
        [not p for p in predicted], [not a_ for a_ in actual]))
    # flipping both classes swaps (recall, far) with (1-far, 1-recall),
    # which is the same distance to the ideal corner
    assert a == pytest.approx(b, abs=1e-12)


# ---------------------------------------------------------- score function

def test_score_function_aliases_and_orientation():
    assert score_function("d2h") is metrics.DIS2HEAVEN
    assert score_function("dis2heaven") is metrics.DIS2HEAVEN
    assert score_function("popt") is metrics.POPT
    assert not metrics.DIS2HEAVEN.higher_is_better
    assert metrics.POPT.higher_is_better
    assert metrics.DIS2HEAVEN.better(0.1, 0.4)
    assert metrics.POPT.better(0.9, 0.4)
    assert metrics.DIS2HEAVEN.sort_key(0.3) == 0.3
    assert metrics.POPT.sort_key(0.3) == -0.3


def test_score_function_unknown_kind():
    with pytest.raises(UnsupportedScoreError, match="auc"):
        score_function("auc")


# -------------------------------------------------------------------- popt

def test_popt_pinned_value(popt_fixture):
    defects, efforts = popt_fixture
    result = popt(defects, efforts)
    assert result.value == 0.8205128205128205
    assert not result.degenerate


def test_popt_equals_oracle_exactly(popt_fixture):
    defects, efforts = popt_fixture
    want_value, want_degenerate = oracles.popt_of(defects, efforts)
    got = popt(defects, efforts)
    assert got.value == want_value
    assert got.degenerate == want_degenerate


def test_popt_optimal_and_worst_orders(popt_fixture):
    defects, efforts = popt_fixture
    d = np.asarray(defects)
    e = np.asarray(efforts)
    best = oracles.density_order(defects, efforts, descending=True)
    worst = oracles.density_order(defects, efforts, descending=False)
    assert best == [0, 1, 4, 2, 3]
    assert worst == [2, 3, 4, 1, 0]
    assert popt(d[best], e[best]).value == 1.0
    assert popt(d[worst], e[worst]).value == 0.0
    # popt_bounds orders as effort_order_from_scores does on the
    # densities; equal efforts leave ties that only the row index breaks
    for defects, efforts in ((defects, efforts),
                             ([1.0, 0.0, 2.0, 0.0, 1.0, 2.0], [4.0] * 6),
                             ([0.0, 1.0, 0.0, 1.0], [2.0] * 4)):
        d, e = np.asarray(defects), np.asarray(efforts)
        best = oracles.density_order(defects, efforts, descending=True)
        worst = oracles.density_order(defects, efforts, descending=False)
        assert effort_order_from_scores(d / e, e).tolist() == best
        assert effort_order_from_scores(-(d / e), e).tolist() == worst
        assert metrics.popt_bounds(d, e) == (
            oracles.curve_area(d[best], e[best]),
            oracles.curve_area(d[worst], e[worst]))


def test_popt_degenerate_cases():
    assert popt([], []) == (0.5, True)
    assert popt([0, 0, 0], [1, 2, 3]) == (0.5, True)
    # constant density: optimal and worst curves coincide
    assert popt([1, 1, 1], [5, 5, 5]) == (0.5, True)


def test_popt_rejects_bad_input():
    with pytest.raises(ValueError, match="length mismatch"):
        popt([1, 0], [1])
    with pytest.raises(UnsupportedScoreError, match="effort > 0"):
        popt([1, 0], [5, 0])


@settings(max_examples=80, deadline=None)
@given(st.lists(st.tuples(st.integers(0, 3), st.integers(1, 50)),
                min_size=1, max_size=12),
       st.randoms(use_true_random=False))
def test_popt_bounded_and_matches_oracle(pairs, rng):
    defects = [float(d) for d, _ in pairs]
    efforts = [float(e) for _, e in pairs]
    order = list(range(len(pairs)))
    rng.shuffle(order)
    d = [defects[i] for i in order]
    e = [efforts[i] for i in order]
    got = popt(d, e)
    want_value, want_degenerate = oracles.popt_of(d, e)
    assert got.value == want_value
    assert got.degenerate == want_degenerate
    assert 0.0 <= got.value <= 1.0


@pytest.mark.parametrize("defects, efforts, degenerate", [
    (np.random.default_rng(1).poisson(0.7, 30).astype(float),
     np.random.default_rng(2).integers(1, 60, 30).astype(float), False),
    ([1.0, 0.0, 0.0, 2.0, 0.0, 1.0], [3.0, 3.0, 5.0, 8.0, 1.0, 2.0], False),
    ([0.0] * 8, [4.0, 1.0, 9.0, 2.0, 2.0, 7.0, 3.0, 5.0], True),
    ([1.0, 2.0, 3.0, 1.0], [2.0, 4.0, 6.0, 2.0], True),
    # an infinite effort makes every curve area NaN, which clamps to 0
    ([1.0, 0.0, 2.0, 0.0, 1.0], [3.0, np.inf, 5.0, 1.0, 2.0], False),
], ids=["random", "small", "no-defects", "constant-density", "inf-effort"])
@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
def test_popt_batch_equals_popt_exactly(defects, efforts, degenerate):
    rng = np.random.default_rng(5)
    defects = np.asarray(defects)
    efforts = np.asarray(efforts)
    orders = np.array([rng.permutation(len(defects)) for _ in range(40)])
    d, e = defects[orders], efforts[orders]
    bounds = metrics.popt_bounds(defects, efforts)
    assert (bounds is None) == degenerate
    got = metrics.popt_values(d, e, bounds)
    singles = [popt(d[k], e[k]) for k in range(len(orders))]
    assert got.tolist() == [r.value for r in singles]
    assert all(r.degenerate == degenerate for r in singles)
    if degenerate:
        assert got.tolist() == [0.5] * len(orders)
    if np.isinf(efforts).any():
        assert got.tolist() == [0.0] * len(orders)
    # the bounds depend only on the multiset of rows, never on its order
    for k in range(len(orders)):
        again = metrics.popt_bounds(d[k], e[k])
        assert again == bounds or np.array_equal(again, bounds, equal_nan=True)


@settings(max_examples=100, deadline=None)
@given(st.lists(st.tuples(st.integers(0, 3), st.integers(1, 50)),
                min_size=1, max_size=12))
def test_popt_bounds_order_subnormal_efforts_by_exact_density(pairs):
    """Efforts of k * 2**-1070 are subnormal, so d / e overflows to inf for
    every positive row.  Scaling all efforts by one power of two moves no
    lift-chart x, so the bounds must equal those of the integer efforts k,
    with no overflow warning (an error under this suite's filter)."""
    defects = np.array([float(d) for d, _ in pairs])
    efforts = np.array([float(k) for _, k in pairs])
    tiny = efforts * 2.0 ** -1070
    assert tiny.max() < np.finfo(float).tiny
    assert metrics.popt_bounds(defects, tiny) \
        == metrics.popt_bounds(defects, efforts)


@pytest.mark.parametrize("cells", [1, 10 ** 9])
def test_segment_bounds_equal_popt_bounds_of_each_segment(cells, monkeypatch):
    """One batch of segments, padded one per block or all in one: an
    empty segment, a defect-free one, one of constant density and ordinary
    ones each get ``popt_bounds`` of its rows, NaN standing for None."""
    monkeypatch.setattr(metrics, "POPT_BATCH_CELLS", cells)
    rng = np.random.default_rng(4)
    segments = [([], []), ([0.0] * 5, [3.0, 1.0, 4.0, 1.0, 5.0]),
                ([1.0, 2.0, 3.0], [2.0, 4.0, 6.0]),
                ([1.0, 0.0, 0.0, 2.0, 0.0, 1.0], [3, 3, 5, 8, 1, 2]),
                (rng.poisson(0.7, 30), rng.integers(1, 60, 30)), ([], []),
                ([0.0, 1.0], [2.0, 2.0]), ([1.0, 0.0], [1.0, 7.0])]
    defects, efforts, orders, start = [], [], [[], []], 0
    for d, e in segments:
        d, e = np.asarray(d, dtype=float), np.asarray(e, dtype=float)
        for into, order in zip(orders, metrics.popt_orders(d, e)):
            into.extend(start + order)
        defects.extend(d)
        efforts.extend(e)
        start += len(d)
    got = metrics.segment_bounds(
        np.array(defects), np.array(efforts), np.array(orders, dtype=int),
        np.array([len(d) for d, _ in segments]))
    assert got.shape == (2, len(segments))
    for (d, e), (best, worst) in zip(segments, got.T.tolist()):
        want = metrics.popt_bounds(d, e)
        assert (None if np.isnan(best) else (best, worst)) == want
        assert np.isnan(best) == np.isnan(worst)
    assert [np.isnan(b) for b in got[0]] == [True, True, True, False, False,
                                              True, False, False]


def test_popt_invariant_under_effort_rescaling(popt_fixture):
    defects, efforts = popt_fixture
    scaled = [e * 7.0 for e in efforts]
    assert popt(defects, scaled).value == pytest.approx(
        popt(defects, efforts).value, abs=1e-12)


def test_recall_at_20_by_hand():
    # total effort 100; the 20% budget covers only the first row (effort 20),
    # which holds one of the two defects
    assert recall_at_20([1, 0, 1], [20, 70, 10]) == 0.5
    # budget boundary is inclusive: first two rows = exactly 20% of 200
    assert recall_at_20([1, 1, 0], [20, 20, 160]) == 1.0
    assert recall_at_20([0, 0], [1, 1]) == 0.0
    assert recall_at_20([], []) == 0.0


def test_effort_order_from_predictions_buckets_then_effort():
    predicted = [False, True, False, True]
    efforts = [5.0, 9.0, 1.0, 2.0]
    order = effort_order_from_predictions(predicted, efforts)
    assert order.tolist() == [3, 1, 2, 0]
    assert order.tolist() == oracles.prediction_order(predicted, efforts)
    for predicted, efforts in (([True, False, True, False, True], [2.0] * 5),
                               ([False] * 4, [1.0] * 4)):
        assert effort_order_from_predictions(predicted, efforts).tolist() \
            == oracles.prediction_order(predicted, efforts)


def test_effort_order_from_scores_descending_then_effort():
    scores = [0.1, 0.9, 0.9, 0.4]
    efforts = [5.0, 9.0, 2.0, 1.0]
    assert effort_order_from_scores(scores, efforts).tolist() == [2, 1, 3, 0]


# --------------------------------------------------------------------- a12

def test_a12_pinned_value():
    assert a12([1, 2], [2, 3]) == 0.125


def test_a12_extreme_cases():
    assert a12([5, 5, 5], [5, 5, 5]) == 0.5
    assert a12([10, 11], [1, 2]) == 1.0
    assert a12([1, 2], [10, 11]) == 0.0


def test_a12_empty_sample():
    with pytest.raises(ValueError):
        a12([], [1.0])


floats = st.lists(st.floats(min_value=-50, max_value=50, allow_nan=False),
                  min_size=1, max_size=15)


@settings(max_examples=100)
@given(floats, floats)
def test_a12_matches_pairwise_oracle(xs, ys):
    assert a12(xs, ys) == pytest.approx(oracles.a12_pairwise(xs, ys),
                                        abs=1e-12)


@settings(max_examples=60)
@given(floats, floats)
def test_a12_complement_symmetry(xs, ys):
    assert a12(xs, ys) + a12(ys, xs) == pytest.approx(1.0, abs=1e-12)


ints = st.lists(st.integers(-50, 50).map(float), min_size=1, max_size=15)


@settings(max_examples=60)
@given(ints, ints, st.integers(-10, 10).map(float))
def test_a12_shift_invariance(xs, ys, delta):
    # integer-valued samples keep the shifted comparisons exact
    shifted = a12([x + delta for x in xs], [y + delta for y in ys])
    assert shifted == pytest.approx(a12(xs, ys), abs=1e-12)


@settings(max_examples=60)
@given(ints, ints)
def test_a12_monotone_transform_invariance(xs, ys):
    import math
    f = lambda v: math.atan(v) * 3.0    # strictly increasing
    assert a12([f(x) for x in xs], [f(y) for y in ys]) == pytest.approx(
        a12(xs, ys), abs=1e-12)


# ------------------------------------------------------------ mann-whitney

def test_mann_whitney_identical_samples():
    result = mann_whitney([1, 2, 3, 4], [1, 2, 3, 4])
    assert result.u == 8.0
    assert not result.different


def test_mann_whitney_separated_samples():
    result = mann_whitney(list(range(1, 21)), list(range(101, 121)))
    assert result.different
    assert result.u == 0.0


def test_mann_whitney_small_separation_by_hand():
    result = mann_whitney([1, 2, 3], [4, 5, 6])
    assert result.u == 0.0
    assert result.p_value == pytest.approx(0.04953, abs=1e-4)
    assert result.different


def test_mann_whitney_all_ties_degenerates_to_no_difference():
    result = mann_whitney([7, 7, 7], [7, 7, 7])
    assert result.p_value == 1.0
    assert not result.different


def test_mann_whitney_undersized_samples():
    with pytest.raises(ValueError, match="at least 3"):
        mann_whitney([1, 2], [3, 4, 5])
    with pytest.raises(ValueError, match="at least 3"):
        mann_whitney([1, 2, 3], [4, 5])


small = st.lists(st.integers(-8, 8).map(float), min_size=3, max_size=12)


@settings(max_examples=100)
@given(small, small)
def test_mann_whitney_u_matches_pairwise_oracle(xs, ys):
    result = mann_whitney(xs, ys)
    assert result.u == oracles.u_pairwise(xs, ys)
    # the two one-sided statistics always partition the pair count
    assert result.u + oracles.u_pairwise(ys, xs) == len(xs) * len(ys)


# about 2000 values drawn from 40, so nearly every value is tied
_MANY_TIES = np.random.default_rng(5).integers(0, 40, 2003).astype(float) / 4


@settings(max_examples=60)
@given(small, small)
@example(_MANY_TIES[:1000].tolist(), _MANY_TIES[1000:].tolist())
def test_fractional_ranks_match_oracle(xs, ys):
    pooled = xs + ys
    got = metrics._fractional_ranks(np.asarray(pooled))
    assert got.tolist() == oracles.ranks_of(pooled)


def test_mann_whitney_matches_scipy_on_tied_samples():
    stats = pytest.importorskip("scipy.stats")
    rng = np.random.default_rng(3)
    for _ in range(200):
        xs = rng.integers(0, 6, int(rng.integers(3, 30))).astype(float)
        ys = rng.integers(0, 6, int(rng.integers(3, 30))).astype(float)
        if len(np.unique(np.concatenate([xs, ys]))) < 2:
            continue          # scipy gives NaN where every value ties
        want = stats.mannwhitneyu(xs, ys, use_continuity=False,
                                  method="asymptotic")
        got = mann_whitney(xs, ys)
        assert got.u == want.statistic
        assert abs(got.p_value - want.pvalue) <= 1e-12
