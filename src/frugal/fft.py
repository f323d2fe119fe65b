"""Fast-and-frugal trees: binary decision lists where every node is an exit.

A depth-d tree asks d single-attribute questions; each question immediately
classifies the rows it matches, and whatever survives all d questions lands
in a final leaf predicting the opposite of the last exit.  Training builds
all 2^d exit-policy variants greedily and keeps the one with the best
training score.

Policies that share a bit prefix reach the same rows, so they share one
split search: training searches the prefix trie one level per step, each
of a level's 2^l row subsets a segment of one row array, for every
training set with the same attribute count at once (``grow_many``).  A
level takes each segment's medians, one match block and segment sums for
all its candidate ranges, and picks each winner for both exit bits with a
dense min: 2^(d+1) - 2 searches over 2^d - 1 subsets, in d steps.

A Popt search first prefilters.  One cumsum per subset gives every
candidate's lift-curve area in closed form, for both exit classes, and
only the candidates whose closed-form Popt is within a rounding slack of
the best, 64 (n + 2) eps / (s_opt - s_worst) on n rows, are ranked by the
exact path; a lone survivor wins unranked.  The slack bounds the two
paths' rounding in any summation order (derived at ``_AREA_SLACK``), so
no candidate that could win or tie is dropped, and every recorded score
still comes from the exact path.  A subset's optimal and worst orders are
its set's root orders filtered to its rows.

Each tree's training score is read off the rows each node exits: d2h
counts the rows of its true exits and their positives, and Popt ranks the
exits joined.  No row is routed through a finished tree again.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from itertools import product

import numpy as np

from .dataset import Dataset
from .errors import (DatasetError, TrainingError, UnsupportedScoreError,
                     json_boolean, json_integer, json_number, json_string)
from .metrics import (
    Confusion,
    DIS2HEAVEN,
    POPT,
    POPT_BATCH_CELLS,
    ScoreFunction,
    dis2heaven,
    dis2heaven_values,
    effort_order_from_scores,
    popt,
    popt_orders,
    popt_scale,
    popt_values,
    segment_bounds,
)

# grow builds and returns all 2^depth trees, and its time more than
# doubles every two levels (1584 rows on a 2-vCPU host: d2h 0.09 s at
# depth 10, 0.19 s at depth 12; Popt 0.24 s and 0.66 s), so deeper trees
# are refused rather than left to run for hours.
MAX_DEPTH = 12


@dataclass(frozen=True)
class Range:
    """Unary predicate on one attribute, e.g. ``rfc > 32``."""

    attribute: str
    op: str
    cut: float

    def __post_init__(self):
        if self.op not in ("<=", ">"):
            raise ValueError(f"range op must be <= or >, got {self.op!r}")
        if not np.isfinite(self.cut):
            raise ValueError("range cut must be finite")

    @property
    def display(self) -> str:
        return f"{self.attribute} {self.op} {_fmt(self.cut)}"

    def matches_array(self, values: np.ndarray) -> np.ndarray:
        """Mask of the values the range matches; NaN (missing) never
        matches."""
        if self.op == "<=":
            return values <= self.cut
        return values > self.cut


@dataclass(frozen=True)
class Node:
    range: Range
    exit_class: bool
    support: int


@dataclass(frozen=True)
class FFTree:
    """A trained tree: up to ``depth`` exit nodes plus the final leaf.

    ``policy`` holds each level's exit class; ``policy_string`` adds the
    final leaf's digit, always the opposite of the last exit.  ``nodes``
    may be shorter than the policy when training ran out of rows (or of
    scoreable ranges); the unused policy digits stay in the label.
    """

    policy: tuple[bool, ...]
    nodes: tuple[Node, ...]
    leaf_class: bool
    leaf_support: int
    train_score: float | None = None
    score_kind: str | None = None

    @property
    def depth(self) -> int:
        return len(self.policy)

    @property
    def truncated(self) -> bool:
        return len(self.nodes) < self.depth

    @property
    def policy_string(self) -> str:
        return "".join("1" if bit else "0"
                       for bit in (*self.policy, not self.policy[-1]))

    @property
    def attributes(self) -> tuple[str, ...]:
        return tuple(dict.fromkeys(n.range.attribute for n in self.nodes))


def _medians(block: np.ndarray) -> np.ndarray:
    """Per-column median of a (rows x columns) block over its non-missing
    values; NaN for a column with none.  Even counts take the mean of the
    two middle values, exactly as ``np.median`` does, except that a finite
    pair whose sum overflows takes the sum of its halves; a (-inf, +inf)
    pair gives NaN."""
    if len(block) == 0:
        return np.full(block.shape[1], np.nan)
    counts = len(block) - np.count_nonzero(np.isnan(block), axis=0)
    lo, hi = (counts - 1) // 2, counts // 2
    ordered = np.sort(block, axis=0)  # missing values sort last
    cols = np.arange(block.shape[1])
    low, high = ordered[lo, cols], ordered[hi, cols]
    with np.errstate(over="ignore", invalid="ignore"):
        mean = (low + high) / 2.0
    spill = np.isinf(mean)
    if spill.any():
        spill &= np.isfinite(low) & np.isfinite(high)
        mean[spill] = low[spill] / 2.0 + high[spill] / 2.0
    return np.where(lo == hi, low, mean)


def discretize(data: Dataset, attribute: str, subset=None) -> list[Range]:
    """Median split of an attribute over the current rows.

    Recomputed at every tree level since the surviving rows shrink.  Returns
    the pair {attr <= median, attr > median}, or nothing when every value is
    missing or the median is infinite.  Even-length medians take the mean
    of the two middle values.
    """
    col = data.column(attribute)
    if subset is not None:
        col = col[subset]
    cut = float(_medians(col[:, None])[0])
    if not np.isfinite(cut):
        return []
    return [Range(attribute, "<=", cut), Range(attribute, ">", cut)]


def score_range(rng: Range, data: Dataset, exit_class: bool,
                fn: ScoreFunction, subset=None) -> float:
    """Score the one-question classifier "rows matching ``rng`` are
    ``exit_class``, everything else is the opposite" on the current rows
    of a set ``grow`` could train on: a one-node tree's score."""
    check_train(data, fn)
    tree = FFTree(policy=(bool(exit_class),), leaf_class=not exit_class,
                  nodes=(Node(rng, bool(exit_class), 0),), leaf_support=0)
    return tree_score(tree, data.subset(np.sort(
        np.arange(len(data)) if subset is None else subset)), fn)


# A level's search takes segments, and the Popt prefilter candidates, in
# blocks of about this many (rows x columns) cells: at 65536 a rig-cv
# grow's traced peak was 0.97 MB, and a whole 1320-row prefilter block
# raised rig-version's peak RSS by about 0.6 MB more.
_SEARCH_CELLS = 16384

# The prefilter's slack, in area units per row (plus two).  With u = eps/2,
# a sum or dot product of n terms, in any order and so under any BLAS, is
# within n*u of the sum of their magnitudes (Higham, Accuracy and
# Stability of Numerical Algorithms, 2nd ed., 3.1 and 4.2).  To first
# order in u, on an n-row subset with effort T and D defects:
# - the exact area (``metrics._curve_area``): each lift-chart x is within
#   2n*u of its value and the y rise monotonically to 1, so summing by parts
#   costs 4n*u on the doubled area; the y add 2u, the products and the
#   final sum 2(n+2)*u.  So |exact - true| <= 3(n+1)*u.
# - the closed form: its terms lie in [0, T*D] with weights summing to 6.5,
#   their rounding errors sum to (7.5n+1)*u*T*D, the additions add
#   32.5*u*T*D, the exit-False identity (3n+19)*u*T*D and the division by
#   T*D (n+1)*u.  So |closed - true| <= (11.5n+54)*u.
# - Popt maps an area A to 1 - (s_opt - A) / g, g = s_opt - s_worst <= 1,
#   which divides the difference by g and adds at most 3u/g on each path.
# So a candidate's closed-form Popt is within 15(n+5)*u/g of its exact
# Popt, and a candidate that ties the exact best is within 15(n+5)*eps/g of
# the closed-form best.  The slack, 64(n+2)*eps/g, exceeds that for every n
# (1.7 times at n = 0, over 4 times past n = 100), so it also covers the
# second-order terms.  The bounds need normal, finite arithmetic:
# ``_closed_areas`` keeps every candidate unless each effort is a normal
# float and 8*n*n*max(effort) is finite.  Underflow in the exact path's
# lift-chart steps adds at most n*2**-1074 to an area, far below eps.
_AREA_SLACK = 64 * sys.float_info.epsilon


class _Stack:
    """Training sets with one attribute count, rows stacked in search order
    (by row index, or for Popt by effort, ties by row index).  ``codes``
    ranks each set's splits by name, then op; ``ranks`` places each row in
    its set's optimal and worst Popt orders (``metrics.popt_orders``)."""

    def __init__(self, trains: list[Dataset], fn: ScoreFunction):
        orders = [np.argsort(t.effort, kind="stable") if fn.kind == "popt"
                  else np.arange(len(t)) for t in trains]
        self.names = [t.attributes for t in trains]
        self.values = [t.values for t in trains]
        self.source = np.concatenate(orders)    # each row's row in its set
        self.labels = np.concatenate([t.labels[o] for t, o in zip(
            trains, orders)]).astype(bool)
        self.sizes = np.array([len(t) for t in trains])
        self.codes = np.array([(2 * np.argsort(np.argsort(np.array(
            names, dtype=object), kind="stable"))[:, None] + (0, 1)).ravel()
            for names in self.names])
        if fn.kind == "popt":
            self.effort = np.concatenate([t.effort[o]
                                          for t, o in zip(trains, orders)])
            self.ranks = np.concatenate([np.argsort(popt_orders(
                t.labels[o].astype(float), t.effort[o]), axis=1)
                for t, o in zip(trains, orders)], axis=1)


def _segment_bounds(stack: _Stack, rows: np.ndarray, n: np.ndarray):
    """``metrics.segment_bounds`` of each row segment (``n`` rows each),
    from its set's root orders filtered to its rows."""
    seg = np.repeat(np.arange(len(n)), n) * len(stack.labels)
    return segment_bounds(stack.labels, stack.effort, [
        rows[np.argsort(seg + rank[rows])] for rank in stack.ranks], n)


def _candidates(stack: _Stack, rows: np.ndarray, n: np.ndarray,
                owners: np.ndarray):
    """Each attribute's median split of each row segment (``n`` rows each,
    none empty, of sets ``owners``): cuts, (rows x splits) match block, and
    per split match and true-positive counts and if it is kept (finite cut,
    a match at least)."""
    starts = np.cumsum(n) - n
    cuts = np.empty((len(n), len(stack.names[0])))
    match = None
    for i, (a, k, g) in enumerate(zip(starts.tolist(), n.tolist(),
                                      owners.tolist())):
        block = stack.values[g][stack.source[rows[a:a + k]]]
        cuts[i] = _medians(block)
        if match is None:   # after the sort, which a lone segment frees
            match = np.empty((len(rows), cuts.shape[1], 2), dtype=bool)
        np.less_equal(block, cuts[i], out=match[a:a + k, :, 0])
        np.greater(block, cuts[i], out=match[a:a + k, :, 1])
    match = match.reshape(len(rows), -1)
    # a lone (perhaps large) segment is counted without an integer cast
    counts, tp = (np.count_nonzero(m, axis=0)[None] if len(n) == 1
                  else np.add.reduceat(m, starts, axis=0, dtype=np.int32)
                  for m in (match, match & stack.labels[rows, None]))
    return cuts, match, counts, tp, (counts > 0) & np.repeat(
        np.isfinite(cuts), 2, axis=1)


def _closed_areas(defects, efforts, match):
    """(2, candidates) lift-curve areas of every candidate's ranking of one
    segment, for exit False then exit True, in closed form; None when the
    efforts leave the range where ``_AREA_SLACK`` holds.

    For exit True a ranking is the first set F (the matching rows), then
    the rest U, each in effort order.  Its area times T*D is the sum over
    rows k of e_k * (defects ranked before k + d_k/2).  With c_k the
    defects of F at or before k and a_k all defects at or before k, that is
    c_k - d_k/2 for k in F and D_F + a_k - c_k - d_k/2 for k in U, so the
    area is (2 sum_F e*c - sum e*c + D_F*E_U + sum_U e*a - e.d/2) / (T*D).
    Ranking U first instead moves D_F*E_U to D_U*E_F: one cumsum of c
    serves both exit classes."""
    n = len(defects)
    if (efforts.min() < sys.float_info.min
            or efforts.max() > sys.float_info.max / (8.0 * n * n)):
        return None
    m = match.shape[1]
    upto = np.cumsum(defects)
    weights = np.stack([efforts, efforts * upto, defects])
    # rows: E_F, sum_F e*a, D_F, sum e*c, sum_F e*c
    sums = np.empty((5, m))
    step = max(1, _SEARCH_CELLS // n)
    positive = defects > 0
    for lo in range(0, m, step):
        cols = slice(lo, lo + step)
        first = match[:, cols]
        ahead = np.cumsum(first & positive[:, None], axis=0, dtype=float)
        first = first.astype(float)
        sums[:3, cols] = weights @ first
        sums[3, cols] = efforts @ ahead
        ahead *= first
        sums[4, cols] = efforts @ ahead
    e_first, ea_first, d_first, ec_all, ec_first = sums
    total_e, total_d = efforts.sum(), defects.sum()
    moved = d_first * (total_e - e_first)
    s_true = (2.0 * ec_first - ec_all + moved
              + (efforts @ upto - ea_first) - (efforts @ defects) / 2.0)
    s_false = s_true - moved + (total_d - d_first) * e_first
    return np.stack([s_false, s_true]) / (total_e * total_d)


def _popt_keys(stack: _Stack, rows, n, match, kept, bounds) -> np.ndarray:
    """(segments, exit class, splits) sort keys by Popt: +inf but for kept
    splits whose closed-form Popt (``popt_scale``) is in the slack of the
    best, so none that could win or tie is left out.  Lone survivors, and
    splits that all score 0.5 (degenerate bounds), are not ranked.
    ``bounds`` holds each segment's ``_segment_bounds``."""
    starts = (np.cumsum(n) - n).tolist()
    defects, efforts = stack.labels[rows].astype(float), stack.effort[rows]
    s_opt, s_worst = bounds
    areas = np.full((len(n), 2, match.shape[1]), np.nan)
    closed = np.zeros(len(n), dtype=bool)
    for i in np.flatnonzero(~np.isnan(s_opt) & kept.any(axis=1)).tolist():
        part, cols = slice(starts[i], starts[i] + n[i]), kept[i]
        got = _closed_areas(defects[part], efforts[part], match[part][:, cols])
        if got is not None:
            areas[i][:, cols], closed[i] = got, True
    value = popt_scale(areas, s_opt[:, None, None], s_worst[:, None, None])
    gap = (s_opt - s_worst)[:, None, None]
    best = np.where(kept[:, None], value, -np.inf).max(axis=2, keepdims=True)
    keep = kept[:, None] & (~closed[:, None, None] | (
        value >= best - _AREA_SLACK * (n[:, None, None] + 2) / gap))
    keys = np.where(keep, 0.0, np.inf)
    ranked = ~np.isnan(s_opt)[:, None] & (np.count_nonzero(keep, axis=2) > 1)
    for i, bit in zip(*np.nonzero(ranked)):
        # matching rows first (exit True) or last: a stable partition
        part, cols = slice(starts[i], starts[i] + n[i]), keep[i, bit]
        later = match[part][:, cols].T != bit
        step = max(1, POPT_BATCH_CELLS // n[i])
        keys[i, bit, cols] = -np.concatenate([popt_values(
            defects[part][o], efforts[part][o], (s_opt[i], s_worst[i]))
            for o in (np.argsort(later[lo:lo + step], axis=1, kind="stable")
                      for lo in range(0, len(later), step))])
    return keys


def _search(stack: _Stack, fn: ScoreFunction, rows: np.ndarray,
            sizes: np.ndarray):
    """Each row segment's best split for exit False and True (segment s:
    the next ``sizes[s]`` of ``rows``, of set s % sets): the column (-1 for
    none), cut, support and positives, and each bit's mask of matched rows.
    Ties break on (score, fewer rows consumed, attribute name, <= first)."""
    column, support, positives = np.zeros((3, len(sizes), 2), dtype=int)
    column -= 1
    cut = np.zeros((len(sizes), 2))
    hits = np.zeros((2, len(rows)), dtype=bool)
    if fn.kind == "popt":
        bounds = _segment_bounds(stack, rows, sizes)
    ends = np.cumsum(sizes)
    per_block = max(1, _SEARCH_CELLS // len(stack.names[0]))
    first = 0
    while first < len(sizes):
        lo = ends[first] - sizes[first]
        last = max(first + 1, np.searchsorted(ends, lo + per_block, "right"))
        segs, part = first + np.flatnonzero(sizes[first:last]), slice(
            lo, ends[last - 1])
        first = last
        if not len(segs):
            continue
        n, owners = sizes[segs], segs % len(stack.sizes)
        cuts, match, counts, tp, kept = _candidates(stack, rows[part], n,
                                                    owners)
        if fn.kind == "popt":
            keys = _popt_keys(stack, rows[part], n, match, kept,
                              bounds[:, segs])
        else:   # exit False, then exit True, along axis 1
            pos = np.add.reduceat(stack.labels[rows[part]], np.cumsum(n) - n,
                                  dtype=int)[:, None]
            neg = n[:, None] - pos
            keys = np.where(kept[:, None], dis2heaven_values(
                np.stack([pos - tp, tp], 1), np.stack([neg + pos - counts,
                                                       counts], 1),
                pos[..., None], neg[..., None]), np.inf)
        tied = (keys == keys.min(axis=2, keepdims=True)) & kept[:, None]
        tied &= counts[:, None] == np.where(tied, counts[:, None], len(
            rows)).min(axis=2, keepdims=True)
        codes = stack.codes[owners, None]
        best = np.where(tied, codes, codes.size).argmin(axis=2)
        found = tied.any(axis=2)
        at = np.arange(len(segs))[:, None]
        column[segs] = np.where(found, best, -1)
        cut[segs] = cuts[at, best // 2]
        support[segs], positives[segs] = np.where(found, (counts[at, best],
                                                          tp[at, best]), 0)
        owner = np.repeat(np.arange(len(segs)), n)
        hits[:, part] = (match[np.arange(len(owner))[:, None], best[owner]]
                         & found[owner]).T
    return column, cut, support, positives, hits


def check_depth(depth: int):
    """TrainingError unless ``grow`` can train trees of this depth."""
    if not 1 <= depth <= MAX_DEPTH:
        raise TrainingError(
            f"depth must be between 1 and {MAX_DEPTH}, got {depth}")


def check_train(train: Dataset, fn: ScoreFunction):
    """TrainingError or UnsupportedScoreError unless ``grow`` can train on
    this set by this score."""
    if not train.binary:
        raise TrainingError(f"{train.name}: labels must be binarized first")
    if len(train) < 2:
        raise TrainingError(f"{train.name}: need at least 2 training rows, "
                            f"got {len(train)}")
    if len(train.attributes) < 1:
        raise TrainingError(f"{train.name}: need at least one attribute")
    if fn.kind == "popt" and train.effort is None:
        raise UnsupportedScoreError(
            f"{train.name}: popt needs an effort column")
    if fn.kind not in ("popt", "dis2heaven"):
        raise UnsupportedScoreError(f"unknown score function {fn.kind!r}")


def build_tree(train: Dataset, policy: tuple[bool, ...],
               fn: ScoreFunction = DIS2HEAVEN) -> FFTree:
    """The tree ``grow`` trains for one exit policy."""
    index = sum(bit << i for i, bit in enumerate(reversed(policy)))
    return grow(train, len(policy), fn)[1][index]


def tree_score(tree: FFTree, data: Dataset, fn: ScoreFunction) -> float:
    """Whole-tree score on a dataset (training or test), by routing its
    rows: the reference for the training scores ``grow`` reads off the
    trie."""
    if fn.kind == "popt":
        order = rank_for_popt(tree, data)
        return popt(data.labels[order].astype(float),
                    data.effort[order]).value
    if fn.kind == "dis2heaven":
        return dis2heaven(Confusion.from_predictions(
            route_dataset(tree, data)[1], data.labels))
    raise UnsupportedScoreError(f"unknown score function {fn.kind!r}")


def _grow_stack(trains: list[Dataset], depth: int,
                fn: ScoreFunction) -> list[tuple[FFTree, list[FFTree]]]:
    """``grow_many`` on sets with one attribute count.  Level l holds a row
    segment per set and exit-bit prefix: for G sets, set g's after bits
    b_0..b_(l-1) is number g + G * (b_0 + 2 b_1 + ...)."""
    stack, sets = _Stack(trains, fn), len(trains)
    rows, sizes = np.arange(len(stack.labels)), stack.sizes
    if fn.kind == "popt":
        bounds = _segment_bounds(stack, rows, sizes).T.tolist()
    # each prefix's nodes, and the rows its nodes exit as ranked: true
    # exits earliest first, then (after the leaf) false exits latest first
    nodes, exits = [()] * sets, [((), ())] * sets
    tp, called = np.zeros((2, sets), dtype=int)     # over the true exits
    for _ in range(depth):
        column, cut, support, positives, hits = _search(stack, fn, rows,
                                                        sizes)
        grown, reached = [], []
        for bit in (0, 1):
            gone = (np.split(rows[hits[bit]], np.cumsum(support[:-1, bit]))
                    if fn.kind == "popt" else None)
            for s, col in enumerate(column[:, bit].tolist()):
                # no split (col -1): no node, and an empty gone[s] exits
                head, tail = exits[s]
                grown.append(nodes[s] if col < 0 else (*nodes[s], Node(Range(
                    stack.names[s % sets][col >> 1], ("<=", ">")[col & 1],
                    float(cut[s, bit])), bool(bit), int(support[s, bit]))))
                if gone is not None:
                    head, tail = ((head + (gone[s],), tail) if bit
                                  else (head, (gone[s],) + tail))
                reached.append((head, tail))
        nodes, exits = grown, reached
        tp, called = np.concatenate([(tp, called), (tp + positives[:, 1],
                                                    called + support[:, 1])], 1)
        rows = np.concatenate([rows[~hit] for hit in hits])
        sizes = np.concatenate([sizes - support[:, bit] for bit in (0, 1)])
    # the leaf opposes the last node, or the first policy bit
    leaf_class = np.array([not (path[-1].exit_class if path else s // sets % 2)
                           for s, path in enumerate(nodes)])
    owner = np.arange(len(sizes)) % sets
    edges = np.cumsum(np.concatenate([[0], sizes])).tolist()   # leaf rows
    pos = np.diff(np.cumsum(np.concatenate([[0], stack.labels[rows]]))[edges])
    total = np.add.reduceat(stack.labels, stack.sizes.cumsum() - stack.sizes,
                            dtype=int)[owner]
    # d2h from each tree's true exits; Popt ranks the trees below
    scores = dis2heaven_values(tp + leaf_class * pos, called + leaf_class
                               * sizes, total, stack.sizes[owner] - total)
    policies = list(product((False, True), repeat=depth))
    grown = []
    for g, n in enumerate(stack.sizes.tolist()):
        leaf = [g + sets * sum(b << i for i, b in enumerate(p))
                for p in policies]
        step = max(1, POPT_BATCH_CELLS // n)
        for lo in range(0, len(leaf), step) if fn.kind == "popt" else ():
            batch = leaf[lo:lo + step]
            ranked = np.stack([np.concatenate((
                *exits[s][0], rows[edges[s]:edges[s + 1]], *exits[s][1]))
                for s in batch])
            scores[batch] = popt_values(
                stack.labels[ranked].astype(float), stack.effort[ranked],
                None if np.isnan(bounds[g][0]) else tuple(bounds[g]))
        trees = [FFTree(policy=p, nodes=nodes[s], leaf_class=bool(
            leaf_class[s]), leaf_support=int(sizes[s]), train_score=float(
            scores[s]), score_kind=fn.kind) for p, s in zip(policies, leaf)]
        grown.append((min(trees, key=lambda t: (fn.sort_key(t.train_score),
                                                t.policy_string)), trees))
    return grown


def grow_many(trains: list[Dataset], depth: int = 4,
              fn: ScoreFunction = DIS2HEAVEN
              ) -> list[tuple[FFTree, list[FFTree]]]:
    """``grow`` on each set, every set checked first.  Sets with one
    attribute count are searched together (see the module docstring), and
    each set's trees are the ones it grows alone."""
    check_depth(depth)
    for train in trains:
        check_train(train, fn)
    grown = {}
    for width in dict.fromkeys(len(t.attributes) for t in trains):
        members = [i for i, t in enumerate(trains)
                   if len(t.attributes) == width]
        grown.update(zip(members, _grow_stack([trains[i] for i in members],
                                              depth, fn)))
    return [grown[i] for i in range(len(trains))]


def grow(train: Dataset, depth: int = 4,
         fn: ScoreFunction = DIS2HEAVEN) -> tuple[FFTree, list[FFTree]]:
    """Train all 2^depth exit-policy trees and select the best on train.

    At each level the best-scoring range exits with the policy's class for
    that level; the rows it does not match move down.  Policies that share
    a bit prefix share its searches (see the module docstring).  Ties
    between equally scored trees go to the smaller policy string.  Returns
    (best tree, all candidates in policy order).
    """
    return grow_many([train], depth, fn)[0]


def route_dataset(tree: FFTree, data: Dataset) -> tuple[np.ndarray, np.ndarray]:
    """(exit index, predicted class) per row: each row exits at the first
    node whose range it matches, else at the final leaf, whose exit index
    is len(nodes).  Missing values match no range."""
    n = len(data)
    exit_idx = np.full(n, len(tree.nodes), dtype=int)
    classes = np.full(n, tree.leaf_class, dtype=bool)
    undecided = np.ones(n, dtype=bool)
    for i, node in enumerate(tree.nodes):
        hit = undecided & node.range.matches_array(
            data.column(node.range.attribute))
        exit_idx[hit] = i
        classes[hit] = node.exit_class
        undecided &= ~hit
    return exit_idx, classes


def score_dataset(tree: FFTree, data: Dataset) -> np.ndarray:
    """Per-row suspicion score in [0, 1], 0.5 or more exactly where the row
    exits true, like the baselines' scores.  True exits score above 0.5,
    earlier exits higher; false exits below it, later exits higher (the
    longer a row survived, the closer it came to a true exit)."""
    exit_idx, classes = route_dataset(tree, data)
    # true exits k+1..2k+1, earliest highest; false exits 0..k, latest
    k = len(tree.nodes)
    return np.where(classes, 2 * k + 1 - exit_idx, exit_idx) / (2 * k + 1)


def rank_for_popt(tree: FFTree, data: Dataset) -> np.ndarray:
    """Most-suspicious-first row order of ``score_dataset``'s scores; ties
    break on ascending effort, then row index, as in
    ``effort_order_from_scores``."""
    if data.effort is None:
        raise UnsupportedScoreError(f"{data.name}: ranking needs effort")
    return effort_order_from_scores(score_dataset(tree, data), data.effort)


# --- text and JSON forms --------------------------------------------------

def _fmt(x: float) -> str:
    if x == int(x) and abs(x) < 1e15:
        return str(int(x))
    return repr(x)


def _cls(flag: bool) -> str:
    return "true" if flag else "false"


def render(tree: FFTree) -> str:
    """Decision-list text: one ``if/else if <range> then <class>`` line per
    node and a final ``else <class>`` line; a tree with no nodes is the one
    line ``always <class>``."""
    if not tree.nodes:
        return f"always {_cls(tree.leaf_class)}"
    lines = []
    for i, node in enumerate(tree.nodes):
        head = "if" if i == 0 else "else if"
        lines.append(f"{head} {node.range.display} then {_cls(node.exit_class)}")
    lines.append(f"else {_cls(tree.leaf_class)}")
    return "\n".join(lines)


def tree_to_dict(tree: FFTree) -> dict:
    return {
        "depth": tree.depth,
        "policy": tree.policy_string,
        "truncated": tree.truncated,
        "score": tree.score_kind,
        "train_score": tree.train_score,
        "nodes": [{"attribute": n.range.attribute, "op": n.range.op,
                   "cut": n.range.cut, "class": n.exit_class,
                   "support": n.support} for n in tree.nodes],
        "final_leaf": {"class": tree.leaf_class, "support": tree.leaf_support},
    }


def _field(record: dict, key: str, check):
    """``check(record[key])``, naming the key and value when it fails."""
    value = record[key]
    try:
        return check(value)
    except TypeError as exc:
        raise TypeError(f"{key} {value!r}: {exc}") from None


def tree_from_dict(payload: dict) -> FFTree:
    """The tree a model JSON payload describes; DatasetError names the
    first rule it breaks.

    Trees that ran out of rows keep fewer nodes than their policy has
    levels, so the leaf opposes the last node (or the first digit when
    there are none), not necessarily the policy's final digit.
    """
    try:
        depth = _field(payload, "depth", json_integer)
        digits = payload["policy"]
        nodes = tuple(
            Node(range=Range(_field(d, "attribute", json_string), d["op"],
                             _field(d, "cut", json_number)),
                 exit_class=_field(d, "class", json_boolean),
                 support=_field(d, "support", json_integer))
            for d in payload["nodes"])
        leaf = payload["final_leaf"]
        leaf_class = _field(leaf, "class", json_boolean)
        leaf_support = _field(leaf, "support", json_integer)
        train_score, score_kind = (
            None if payload.get(key) is None else _field(payload, key, check)
            for key, check in (("train_score", json_number),
                               ("score", json_string)))
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise DatasetError(f"bad model payload: {exc}") from exc
    if score_kind not in (None, DIS2HEAVEN.kind, POPT.kind):
        raise DatasetError(f"model score {score_kind!r} must be null, "
                           f"{DIS2HEAVEN.kind!r} or {POPT.kind!r}")
    if not (isinstance(digits, str) and set(digits) <= {"0", "1"}):
        raise DatasetError(f"policy {digits!r} must be a string of 0/1 digits")
    if depth < 1 or len(digits) != depth + 1:
        raise DatasetError(f"policy string {digits} does not match depth "
                           f"{depth}")
    if digits[-1] == digits[-2]:
        raise DatasetError(f"policy {digits}: the final digit must oppose "
                           "the last exit")
    bits = tuple(ch == "1" for ch in digits[:-1])
    if len(nodes) > depth or any(node.exit_class != bit
                                 for node, bit in zip(nodes, bits)):
        raise DatasetError(f"node exits {[n.exit_class for n in nodes]} do "
                           f"not follow policy {digits}")
    if leaf_class == (nodes[-1].exit_class if nodes else bits[0]):
        raise DatasetError("final leaf must oppose the last exit")
    if leaf_support < 0 or any(n.support < 0 for n in nodes):
        raise DatasetError("supports must be >= 0")
    return FFTree(policy=bits, nodes=nodes, leaf_class=leaf_class,
                  leaf_support=leaf_support, train_score=train_score,
                  score_kind=score_kind)
