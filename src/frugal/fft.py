"""Fast-and-frugal trees: binary decision lists where every node is an exit.

A depth-d tree asks d single-attribute questions; each question immediately
classifies the rows it matches, and whatever survives all d questions lands
in a final leaf predicting the opposite of the last exit.  Training builds
all 2^d exit-policy variants greedily and keeps the one with the best
training score.

Policies that share a bit prefix reach the same rows, so they share one
split search: training walks the prefix trie once, depth first, with one
median/mask block (and, for Popt, one pair of optimal/worst curve areas)
per row subset and one search per (subset, exit bit) -- 2^(d+1) - 2
searches over 2^d - 1 subsets, instead of d searches for each of the 2^d
policies.  Only the subsets on the current path stay alive.  A search
scores all of a subset's candidate ranges as arrays and picks the winner
with one sort.

A Popt search first prefilters.  One cumsum per subset gives every
candidate's lift-curve area in closed form, for both exit classes, and
only the candidates whose closed-form Popt is within a rounding slack of
the best, 64 (n + 2) eps / (s_opt - s_worst) on n rows, are ranked by the
exact path; a lone survivor wins unranked.  The slack bounds the two
paths' rounding in any summation order (derived at ``_AREA_SLACK``), so
no candidate that could win or tie is dropped, and every recorded score
still comes from the exact path.

Each tree's training score, d2h or Popt, is read off the rows each node
exits on the same walk: joined, they are the tree's ranking, which Popt
scores, and d2h counts the rows of its true exits and their positives.  No
row is routed through a finished tree again.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass, replace
from functools import cached_property
from itertools import islice

import numpy as np

from .dataset import Dataset
from .errors import (DatasetError, TrainingError, UnsupportedScoreError,
                     json_boolean, json_integer, json_number, json_string)
from .metrics import (
    Confusion,
    DIS2HEAVEN,
    POPT,
    ScoreFunction,
    dis2heaven,
    dis2heaven_values,
    effort_order_from_scores,
    popt,
    popt_bounds,
    popt_values,
)

# grow builds and returns all 2^depth trees, and its time more than
# doubles every two levels (1584 rows on a 2-vCPU host: d2h 0.24 s at
# depth 10, 0.56 s at depth 12; Popt 0.51 s and 1.4 s), so deeper trees
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
    ``exit_class``, everything else is the opposite" on the current rows.

    Expects a binarized dataset and, for Popt, its effort column.
    """
    if not data.binary:
        raise TrainingError("score_range needs binarized labels")
    rows = np.arange(len(data)) if subset is None else subset
    root = _Subset.root(data, fn, rows)
    match = rng.matches_array(data.column(rng.attribute)[root.rows])
    return float(root.scores(match[:, None], exit_class)[0])


# Popt scores candidate rankings in batches of about this many cells
# (rankings x rows); a batch always holds at least one ranking.  On a
# 2-vCPU Xeon, scoring a 1320-row subset's candidates in one batch made a
# Popt grow slower and raised peak RSS by 4.2 MB (+9% on a whole rig run);
# batches of 1024-8192 cells kept the rise under 1 MB, and 4096 ran fastest.
# grow scores its finished trees in batches of the same size.  The Popt
# prefilter (``_Subset._closed_areas``) works on blocks of about
# _POPT_CLOSED_CELLS (rows x candidates) cells: a whole 1320-row block
# raised rig-version's peak RSS by about 0.6 MB more than these blocks.
_POPT_BATCH_CELLS = 4096
_POPT_CLOSED_CELLS = 16384

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


def _candidates(data: Dataset, rows: np.ndarray):
    """Every attribute's median split over ``rows``, kept when its cut is
    finite and it matches at least one row, as arrays over the kept splits:
    attribute index, op bit (0 for ``<=``, 1 for ``>``), cut, the (rows x
    splits) match block and match counts.  Splits are ordered by
    attribute, ``<=`` before ``>``."""
    block = data.values[rows]
    cuts = _medians(block)
    match = np.stack([block <= cuts, block > cuts], axis=2).reshape(
        len(block), -1)
    n_match = np.count_nonzero(match, axis=0)
    keep = np.flatnonzero(n_match * np.repeat(np.isfinite(cuts), 2))
    attr, op = np.divmod(keep, 2)
    return attr, op, cuts[attr], match[:, keep], n_match[keep]


class _Subset:
    """A node of the prefix trie: the rows that every exit policy with one
    bit prefix reaches.  For Popt the rows are in effort order (ties by
    row index), and every child subset keeps it.  Each part of the split
    search is computed once, on first use, and shared by both exit bits:
    every attribute's median split and, for Popt, the optimal/worst curve
    areas and the candidates' closed-form areas."""

    def __init__(self, data: Dataset, fn: ScoreFunction, rows: np.ndarray):
        self.data, self.fn, self.rows = data, fn, rows
        self.labels = np.asarray(data.labels[rows], dtype=bool)

    @classmethod
    def root(cls, data: Dataset, fn: ScoreFunction, rows) -> "_Subset":
        """The subset of ``rows`` that a search starts from."""
        if fn.kind == "popt" and data.effort is None:
            raise UnsupportedScoreError(
                f"{data.name}: popt needs an effort column")
        if fn.kind not in ("popt", "dis2heaven"):
            raise UnsupportedScoreError(f"unknown score function {fn.kind!r}")
        rows = np.sort(rows)
        if fn.kind == "popt":
            rows = rows[np.argsort(data.effort[rows], kind="stable")]
        return cls(data, fn, rows)

    @cached_property
    def _popt(self):
        """(defects, efforts, Popt bounds) of the rows, in effort order."""
        defects = self.labels.astype(float)
        efforts = self.data.effort[self.rows]
        return defects, efforts, popt_bounds(defects, efforts)

    @cached_property
    def candidates(self):
        return _candidates(self.data, self.rows)

    @cached_property
    def _closed_areas(self):
        """(2, candidates) lift-curve areas of every candidate's ranking,
        for exit False then exit True, in closed form; None when the bounds
        are degenerate or the efforts leave the range where ``_AREA_SLACK``
        holds.

        For exit True a ranking is the first set F (the matching rows),
        then the rest U, each in effort order.  Its area times T*D is the
        sum over rows k of e_k * (defects ranked before k + d_k/2).  With
        c_k the defects of F at or before k and a_k all defects at or
        before k, that is c_k - d_k/2 for k in F and D_F + a_k - c_k - d_k/2
        for k in U, so the area is (2 sum_F e*c - sum e*c + D_F*E_U
        + sum_U e*a - e.d/2) / (T*D).  Ranking U first instead moves D_F*E_U
        to D_U*E_F: one cumsum of c serves both exit classes."""
        defects, efforts, bounds = self._popt
        n = len(defects)
        if (bounds is None or efforts.min() < sys.float_info.min
                or efforts.max() > sys.float_info.max / (8.0 * n * n)):
            return None
        match = self.candidates[3]
        m = match.shape[1]
        upto = np.cumsum(defects)
        weights = np.stack([efforts, efforts * upto, defects])
        # rows: E_F, sum_F e*a, D_F, sum e*c, sum_F e*c
        sums = np.empty((5, m))
        # equal blocks of at most about _POPT_CLOSED_CELLS cells
        blocks = -(-n * m // _POPT_CLOSED_CELLS)
        step = -(-m // blocks)
        for lo in range(0, m, step):
            cols = slice(lo, lo + step)
            first = match[:, cols]
            ahead = np.cumsum(first & self.labels[:, None], axis=0,
                              dtype=float)
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

    def _near_best(self, exit_class: bool):
        """The candidates that could win or tie the exact search for one
        exit class, as an index array (or a slice of all of them): those
        whose closed-form Popt, clamped as ``popt_values`` clamps, is within
        the slack of the best.  Popt grows with the area, so no candidate
        whose exact score wins or ties is left out."""
        areas = self._closed_areas
        if areas is None:
            return slice(None)
        s_opt, s_worst = self._popt[2]
        value = 1.0 - (s_opt - areas[int(exit_class)]) / (s_opt - s_worst)
        value = np.minimum(1.0, np.fmax(0.0, value))
        slack = _AREA_SLACK * (len(self.rows) + 2) / (s_opt - s_worst)
        return np.flatnonzero(value >= value.max() - slack)

    def scores(self, match: np.ndarray, exit_class: bool) -> np.ndarray:
        """Score of each column of a (rows x candidates) match block, read
        as "matching rows are ``exit_class``, the rest the opposite"."""
        n = len(self.rows)
        if self.fn.kind == "dis2heaven":
            pos = int(np.count_nonzero(self.labels))
            tp = np.count_nonzero(match[self.labels], axis=0)
            called = np.count_nonzero(match, axis=0)
            if not exit_class:
                tp, called = pos - tp, n - called
            return dis2heaven_values(tp, called, pos, n - pos)
        # Predicted positives first, then effort order: a stable partition
        # of the rows, one ranking per candidate.
        later = (~match if exit_class else match).T
        step = max(1, _POPT_BATCH_CELLS // max(1, n))
        return np.concatenate([
            self._popt_values(self.rows[np.argsort(later[lo:lo + step],
                                                   axis=1, kind="stable")])
            for lo in range(0, len(later), step)])

    def _popt_values(self, rankings: np.ndarray) -> np.ndarray:
        """Popt of each ranking of this subset's rows, given as row indices
        along the last axis."""
        return popt_values(self.data.labels[rankings].astype(float),
                           self.data.effort[rankings], self._popt[2])

    def split(self, exit_class: bool):
        """(node, child subset of the rows it leaves, the rows it exits) of
        the best split for one exit class, or None when no range matches any
        row.

        Ties break on (score, fewer rows consumed, attribute name, <= before
        >).
        """
        attr, op, cut, match, n_match = self.candidates
        if not len(attr):
            return None
        if self.fn.kind == "popt":
            # only the candidates that could win or tie are ranked exactly
            keep = self._near_best(exit_class)
            attr, op, cut, match, n_match = (
                a[..., keep] for a in self.candidates)
        best = 0  # a lone candidate needs no ranking
        if len(attr) > 1:
            key = self.fn.sort_key(self.scores(match, exit_class))
            # object, not str, dtype: numpy's str compare drops trailing NULs
            names = np.array(self.data.attributes, dtype=object)[attr]
            best = np.lexsort((op, names, n_match, key))[0]
        rng = Range(self.data.attributes[attr[best]], ("<=", ">")[op[best]],
                    float(cut[best]))
        node = Node(range=rng, exit_class=exit_class,
                    support=int(n_match[best]))
        hit = match[:, best]
        rest = _Subset(self.data, self.fn, self.rows[~hit])
        return node, rest, self.rows[hit]

    def scored(self, batch) -> list[FFTree]:
        """Each tree of a batch of (tree, exits) pairs from ``_walk`` with
        its score on this subset's rows, which must be all of the data.
        The exits (one per node, then the leaf's) hold every row once, so
        no row is routed again."""
        # rank_for_popt's order: rows leaving through true exits, earliest
        # exit first, then through false exits, latest first
        rankings, called = [], []
        for tree, exits in batch:
            classes = (*(n.exit_class for n in tree.nodes), tree.leaf_class)
            true = [e for e, c in zip(exits, classes) if c]
            false = [e for e, c in zip(exits, classes) if not c]
            rankings.append(np.concatenate(true + false[::-1]))
            called.append(sum(map(len, true)))
        rankings, called = np.stack(rankings), np.array(called)
        if self.fn.kind == "popt":
            scores = self._popt_values(rankings)
        else:
            n, pos = len(self.rows), int(np.count_nonzero(self.labels))
            tp = np.count_nonzero(self.data.labels[rankings]
                                  & (np.arange(n) < called[:, None]), axis=1)
            scores = dis2heaven_values(tp, called, pos, n - pos)
        return [replace(tree, train_score=score)
                for (tree, _), score in zip(batch, scores.tolist())]


def _walk(subset: _Subset, depth: int, policy: tuple[bool, ...],
          nodes: tuple[Node, ...], exits: tuple):
    """Yield (tree, exits) for every exit policy that starts with
    ``policy``, in ascending binary order; the trees are not scored yet.
    ``subset`` holds the rows that ``nodes`` leave, and ``exits`` the rows
    each node exits.  A level with no rows left, or with no range that
    matches a row, adds no node, nor does any level below."""
    if len(policy) == depth:
        leaf_class = not (nodes[-1].exit_class if nodes else policy[0])
        tree = FFTree(policy=policy, nodes=nodes, leaf_class=leaf_class,
                      leaf_support=len(subset.rows),
                      score_kind=subset.fn.kind)
        yield tree, (*exits, subset.rows)
        return
    for bit in (False, True):
        split = subset.split(bit) if len(subset.rows) else None
        if split is None:
            yield from _walk(subset, depth, (*policy, bit), nodes, exits)
        else:
            node, rest, out = split
            yield from _walk(rest, depth, (*policy, bit), (*nodes, node),
                             (*exits, out))


def check_depth(depth: int):
    """TrainingError unless ``grow`` can train trees of this depth."""
    if not 1 <= depth <= MAX_DEPTH:
        raise TrainingError(
            f"depth must be between 1 and {MAX_DEPTH}, got {depth}")


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


def grow(train: Dataset, depth: int = 4,
         fn: ScoreFunction = DIS2HEAVEN) -> tuple[FFTree, list[FFTree]]:
    """Train all 2^depth exit-policy trees and select the best on train.

    At each level the best-scoring range exits with the policy's class for
    that level; the rows it does not match move down.  Policies that share
    a bit prefix share its searches (see the module docstring).  Ties
    between equally scored trees go to the smaller policy string.  Returns
    (best tree, all candidates in policy order).
    """
    check_depth(depth)
    if not train.binary:
        raise TrainingError(f"{train.name}: labels must be binarized first")
    if len(train) < 2:
        raise TrainingError(f"{train.name}: need at least 2 training rows, "
                            f"got {len(train)}")
    if len(train.attributes) < 1:
        raise TrainingError(f"{train.name}: need at least one attribute")
    root = _Subset.root(train, fn, np.arange(len(train)))
    walk = _walk(root, depth, (), (), ())
    step = max(1, _POPT_BATCH_CELLS // len(train))
    trees = []
    while batch := list(islice(walk, step)):
        trees += root.scored(batch)
    best = min(trees, key=lambda t: (fn.sort_key(t.train_score),
                                     t.policy_string))
    return best, trees


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
    node and a final ``else <class>`` line."""
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
