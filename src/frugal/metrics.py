"""Score functions and rank statistics.

Covers the two pluggable objectives (distance-to-heaven, effort-aware Popt),
the confusion-matrix metrics they build on, and the nonparametric statistics
used elsewhere in the package (Vargha-Delaney A12, Mann-Whitney U).
All functions are pure.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np

from .errors import UnsupportedScoreError

# |A12 - 0.5| at or beyond this counts as more than a small effect.
SMALL_EFFECT = 0.06
# recall_at_20's share of the total effort.
EFFORT_BUDGET = 0.2
# mann_whitney calls two samples different below this p-value.
ALPHA = 0.05


@dataclass(frozen=True)
class Confusion:
    tp: int
    fp: int
    tn: int
    fn: int

    @classmethod
    def from_predictions(cls, predicted, actual) -> "Confusion":
        predicted = np.asarray(predicted, dtype=bool)
        actual = np.asarray(actual, dtype=bool)
        if predicted.shape != actual.shape:
            raise ValueError("predicted/actual length mismatch")
        return cls(tp=int(np.sum(predicted & actual)),
                   fp=int(np.sum(predicted & ~actual)),
                   tn=int(np.sum(~predicted & ~actual)),
                   fn=int(np.sum(~predicted & actual)))


def recall(c: Confusion) -> float:
    """True-positive rate; 1.0 when there are no actual positives (nothing
    to find, nothing missed)."""
    if c.tp + c.fn == 0:
        return 1.0
    return c.tp / (c.tp + c.fn)


def far(c: Confusion) -> float:
    """False-alarm rate; 0.0 when there are no actual negatives."""
    if c.fp + c.tn == 0:
        return 0.0
    return c.fp / (c.fp + c.tn)


def dis2heaven_values(tp, called, pos, neg) -> np.ndarray:
    """Distance to heaven of each classifier in a batch, from its true
    positives and its predicted positives (``called``) on data with ``pos``
    positives and ``neg`` negatives; the arguments broadcast.

    Recall reads 1.0 when ``pos`` is 0 and FAR 0.0 when ``neg`` is 0, as in
    ``recall`` and ``far``; no division by zero happens.  ``float_power``
    is C ``pow``, as Python's ``**`` is, so one classifier's value is the
    float the scalar formula gives.
    """
    tp, called, pos, neg = map(np.asarray, (tp, called, pos, neg))
    has_pos, has_neg = pos > 0, neg > 0
    r = np.where(has_pos, tp / np.where(has_pos, pos, 1), 1.0)
    f = np.where(has_neg, (called - tp) / np.where(has_neg, neg, 1), 0.0)
    return np.sqrt((np.float_power(1.0 - r, 2.0)
                    + np.float_power(f, 2.0)) / 2.0)


def dis2heaven(c: Confusion) -> float:
    """Normalized Euclidean distance from (recall, FAR) to the ideal (1, 0).

    Zero for a perfect classifier, one at the worst corner; lower is better.
    """
    return float(dis2heaven_values(c.tp, c.tp + c.fp, c.tp + c.fn,
                                   c.fp + c.tn))


@dataclass(frozen=True)
class ScoreFunction:
    """Objective identity plus orientation, so one comparator serves range
    ranking, tree selection and test scoring."""

    kind: str
    higher_is_better: bool

    def sort_key(self, value: float) -> float:
        """Smaller key = better, whatever the orientation."""
        return -value if self.higher_is_better else value

    def better(self, a: float, b: float) -> bool:
        return self.sort_key(a) < self.sort_key(b)


DIS2HEAVEN = ScoreFunction(kind="dis2heaven", higher_is_better=False)
POPT = ScoreFunction(kind="popt", higher_is_better=True)

SCORE_FUNCTIONS = {
    "d2h": DIS2HEAVEN,
    "dis2heaven": DIS2HEAVEN,
    "popt": POPT,
}


def score_function(kind: str) -> ScoreFunction:
    try:
        return SCORE_FUNCTIONS[kind]
    except (KeyError, TypeError):
        raise UnsupportedScoreError(f"unknown score function {kind!r}")


class PoptResult(NamedTuple):
    value: float
    degenerate: bool = False


def _curve_area(defects, efforts):
    # trapezoid rule over the cumulative lift chart of each ranking (last
    # axis); strictly sequential accumulation so results are reproducible to
    # the last bit, whether rankings come one at a time or as a batch
    cum_e = np.cumsum(efforts, axis=-1)
    cum_d = np.cumsum(defects, axis=-1)
    origin = np.zeros(cum_e.shape[:-1] + (1,))
    xs = np.concatenate([origin, cum_e / cum_e[..., -1:]], axis=-1)
    ys = np.concatenate([origin, cum_d / cum_d[..., -1:]], axis=-1)
    terms = (xs[..., 1:] - xs[..., :-1]) * (ys[..., 1:] + ys[..., :-1])
    return np.cumsum(terms, axis=-1)[..., -1] / 2.0


def popt_bounds(defects, efforts) -> tuple[float, float] | None:
    """(optimal, worst) lift-curve areas of a set of rows, or None when the
    set is degenerate: no rows, no defects, or no gap between the two.

    The optimal curve visits rows by defect density, descending; the worst
    ascending; both break ties by ascending effort, then row order.  Both
    depend only on the multiset of (defect, effort) pairs, so one call
    serves every ranking of the same rows.
    """
    defects = np.asarray(defects, dtype=float)
    efforts = np.asarray(efforts, dtype=float)
    if len(defects) == 0:
        return None
    if not np.all(efforts > 0):
        raise UnsupportedScoreError("popt needs effort > 0 for every row")
    if defects.sum() <= 0:
        return None
    best, worst = popt_orders(defects, efforts)
    s_opt = float(_curve_area(defects[best], efforts[best]))
    s_worst = float(_curve_area(defects[worst], efforts[worst]))
    if s_opt - s_worst <= 1e-12:
        return None
    return s_opt, s_worst


def popt_orders(defects, efforts) -> tuple[np.ndarray, np.ndarray]:
    """The row orders of ``popt_bounds``' optimal and worst curves: by
    defect density, descending and ascending, ties by ascending effort,
    then row order.  Every subset of the rows keeps its rows' places."""
    # each density d/e as its sign, signed exponent and fraction (lexsort
    # reads its last key first): exact where d/e would overflow, as on a
    # subnormal effort, and in the order of d/e wherever that is normal
    frac_d, exp_d = np.frexp(defects)
    frac_e, exp_e = np.frexp(efforts)
    frac, exp = np.frexp(frac_d / frac_e)
    sign = np.sign(frac)
    density = (frac, sign * (exp + exp_d - exp_e), sign)
    return (np.lexsort((efforts, *(-key for key in density))),
            np.lexsort((efforts, *density)))


def popt_values(defects, efforts, bounds) -> np.ndarray:
    """Popt of each ranking in a batch: every slice of ``defects`` and
    ``efforts`` along the last axis is one ordering of the rows that
    ``bounds`` (from ``popt_bounds``) describes.  Each ranking's area is
    normalized between the worst and optimal areas and clamped to [0, 1]
    (NaN reads 0); degenerate bounds give 0.5."""
    if bounds is None:
        return np.full(np.shape(defects)[:-1], 0.5)
    s_opt, s_worst = bounds
    value = 1.0 - (s_opt - _curve_area(defects, efforts)) / (s_opt - s_worst)
    return np.minimum(1.0, np.fmax(0.0, value))


def popt(defects, efforts) -> PoptResult:
    """Effort-aware Popt of a ranking.

    ``defects`` and ``efforts`` are row-aligned arrays already sorted into
    the model's most-suspicious-first order.  The score normalizes the area
    under that ranking's lift curve between the optimal curve (rows by true
    defect density, descending) and the worst curve (ascending), then clamps
    to [0, 1].  Rankings of defect-free (or constant-density) data have no
    optimal/worst gap; those return 0.5 flagged as degenerate.
    """
    defects = np.asarray(defects, dtype=float)
    efforts = np.asarray(efforts, dtype=float)
    if len(defects) != len(efforts):
        raise ValueError("defects/efforts length mismatch")
    bounds = popt_bounds(defects, efforts)
    if bounds is None:
        return PoptResult(0.5, degenerate=True)
    return PoptResult(float(popt_values(defects, efforts, bounds)))


def recall_at_20(defects, efforts) -> float:
    """Fraction of all defects inside the ranking's first ``EFFORT_BUDGET``
    of cumulative effort.  Zero when the data holds no defects."""
    defects = np.asarray(defects, dtype=float)
    efforts = np.asarray(efforts, dtype=float)
    total_d = defects.sum()
    if total_d <= 0 or len(defects) == 0:
        return 0.0
    frontier = EFFORT_BUDGET * efforts.sum() + 1e-12
    within = np.cumsum(efforts) <= frontier
    return float(defects[within].sum() / total_d)


def effort_order_from_predictions(predicted, efforts) -> np.ndarray:
    """Row order for effort curves given binary predictions: predicted
    positives first, then as ``effort_order_from_scores``."""
    return effort_order_from_scores(np.asarray(predicted, dtype=bool),
                                    efforts)


def effort_order_from_scores(scores, efforts) -> np.ndarray:
    """Row order for effort curves given real-valued suspicion scores:
    higher score first, then smaller effort, then lower row index (the
    sort is stable).  Every model's test ranking is made here."""
    scores = np.asarray(scores, dtype=float)
    efforts = np.asarray(efforts, dtype=float)
    return np.lexsort((efforts, -scores))


def _fractional_ranks(values: np.ndarray) -> np.ndarray:
    """1-based ranks; ties get the mean of the ranks they span.  Each NaN
    ranks alone, after every number."""
    _, group, counts = np.unique(values, return_inverse=True,
                                 return_counts=True, equal_nan=False)
    first = np.cumsum(counts) - counts + 1
    return (first + (counts - 1) / 2.0)[group]


def a12(xs: Sequence[float], ys: Sequence[float]) -> float:
    """Vargha-Delaney effect size: probability that a random draw from
    ``xs`` exceeds one from ``ys``, ties counting one half."""
    xs = np.asarray(xs, dtype=float)
    ys = np.asarray(ys, dtype=float)
    if len(xs) == 0 or len(ys) == 0:
        raise ValueError("a12 needs two nonempty samples")
    ranks = _fractional_ranks(np.concatenate([xs, ys]))
    r1 = ranks[:len(xs)].sum()
    n1, n2 = len(xs), len(ys)
    u1 = r1 - n1 * (n1 + 1) / 2.0
    return u1 / (n1 * n2)


class MannWhitneyResult(NamedTuple):
    u: float
    p_value: float
    different: bool


def mann_whitney(xs, ys) -> MannWhitneyResult:
    """Two-sided Mann-Whitney rank-sum test, normal approximation with tie
    correction.  ``u`` is the U statistic of the first sample; the samples
    differ when ``p_value < ALPHA``."""
    xs = np.asarray(xs, dtype=float)
    ys = np.asarray(ys, dtype=float)
    n1, n2 = len(xs), len(ys)
    if n1 < 3 or n2 < 3:
        raise ValueError("mann_whitney needs at least 3 values per sample")
    pooled = np.concatenate([xs, ys])
    ranks = _fractional_ranks(pooled)
    u1 = ranks[:n1].sum() - n1 * (n1 + 1) / 2.0
    n = n1 + n2
    _, counts = np.unique(pooled, return_counts=True)
    tie_term = float(np.sum(counts ** 3 - counts))
    correction = 1.0 - tie_term / (n ** 3 - n)
    if correction <= 0:
        return MannWhitneyResult(u=float(u1), p_value=1.0, different=False)
    sd = math.sqrt(correction * n1 * n2 * (n + 1) / 12.0)
    z = (u1 - n1 * n2 / 2.0) / sd
    p = min(1.0, math.erfc(abs(z) / math.sqrt(2.0)))
    return MannWhitneyResult(u=float(u1), p_value=p, different=p < ALPHA)
