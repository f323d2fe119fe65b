"""Fast-and-frugal trees: binary decision lists where every node is an exit.

A depth-d tree asks d single-attribute questions; each question immediately
classifies the rows it matches, and whatever survives all d questions lands
in a final leaf predicting the opposite of the last exit.  Training builds
all 2^d exit-policy variants greedily and keeps the one with the best
training score.

Policies that share a bit prefix reach the same rows, so they share one
split search: training walks the prefix trie, with one median/mask block
(and, for Popt, one pair of optimal/worst curve areas) per row subset and
one search per (subset, exit bit) -- 2^(d+1) - 2 searches over 2^d - 1
subsets, instead of d searches for each of the 2^d policies.
"""

from __future__ import annotations

import itertools
import re
from dataclasses import dataclass, replace
from functools import cached_property

import numpy as np

from .dataset import Dataset
from .errors import DatasetError, TrainingError, UnsupportedScoreError
from .metrics import (
    Confusion,
    DIS2HEAVEN,
    ScoreFunction,
    dis2heaven,
    popt_bounds,
    popt_values,
)

# grow builds and returns all 2^depth trees, and its time more than
# doubles every two levels (1584 rows on a 2-vCPU host: d2h 0.7 s at
# depth 10, 1.9 s at depth 12; Popt 1.1 s and 4.0 s), so deeper trees are
# refused rather than left to run for hours.
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
class ExitPolicy:
    """Per-level exit directions: True sends matching rows to the target
    class, False to its negation."""

    bits: tuple[bool, ...]

    def __post_init__(self):
        if len(self.bits) < 1:
            raise ValueError("exit policy needs at least one level")
        object.__setattr__(self, "bits", tuple(bool(b) for b in self.bits))

    @property
    def string(self) -> str:
        """Display form: one digit per level plus the implied final digit,
        which is always the opposite of the last exit."""
        digits = "".join("1" if b else "0" for b in self.bits)
        return digits + ("0" if self.bits[-1] else "1")


def all_policies(depth: int) -> list[ExitPolicy]:
    """Every exit policy of the given depth, in ascending binary order
    (level 0 is the leftmost digit)."""
    if depth < 1:
        raise ValueError("depth must be >= 1")
    return [ExitPolicy(bits)
            for bits in itertools.product((False, True), repeat=depth)]


@dataclass(frozen=True)
class Node:
    range: Range
    exit_class: bool
    support: int


@dataclass(frozen=True)
class FFTree:
    """A trained tree: up to ``depth`` exit nodes plus the final leaf.

    ``nodes`` may be shorter than the policy when training ran out of rows
    (or of scoreable ranges); the unused policy digits stay in the label.
    """

    policy: ExitPolicy
    nodes: tuple[Node, ...]
    leaf_class: bool
    leaf_support: int
    train_score: float | None = None
    score_kind: str | None = None

    @property
    def depth(self) -> int:
        return len(self.policy.bits)

    @property
    def truncated(self) -> bool:
        return len(self.nodes) < self.depth

    @property
    def policy_string(self) -> str:
        return self.policy.string

    @property
    def attributes(self) -> tuple[str, ...]:
        return tuple(dict.fromkeys(n.range.attribute for n in self.nodes))


def _medians(block: np.ndarray) -> np.ndarray:
    """Per-column median of a (rows x columns) block over its non-missing
    values; NaN for a column with none.  Even counts take the mean of the
    two middle values, exactly as ``np.median`` does."""
    if len(block) == 0:
        return np.full(block.shape[1], np.nan)
    counts = len(block) - np.count_nonzero(np.isnan(block), axis=0)
    lo, hi = (counts - 1) // 2, counts // 2
    ordered = np.sort(block, axis=0)  # missing values sort last
    cols = np.arange(block.shape[1])
    low, high = ordered[lo, cols], ordered[hi, cols]
    return np.where(lo == hi, low, (low + high) / 2.0)


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
    match = rng.matches_array(data.column(rng.attribute)[rows])
    return _Subset(data, fn, rows).scores(match[:, None], exit_class)[0]


# Popt scores candidate rankings in batches of about this many cells
# (rankings x rows); a batch always holds at least one ranking.  On a
# 2-vCPU Xeon, scoring a 1320-row subset's candidates in one batch made a
# Popt grow slower and raised peak RSS by 4.2 MB (+9% on a whole rig run);
# batches of 1024-8192 cells kept the rise under 1 MB, and 4096 ran fastest.
_POPT_BATCH_CELLS = 4096


def _candidates(data: Dataset, rows: np.ndarray):
    """Every attribute's median split over ``rows``: the ranges with a
    finite cut that match at least one row, their (rows x ranges) match
    block and match counts.  Ranges are ordered by attribute, ``<=`` before
    ``>``."""
    block = data.values[rows]
    cuts = _medians(block)
    match = np.stack([block <= cuts, block > cuts], axis=2).reshape(
        len(block), -1)
    n_match = np.count_nonzero(match, axis=0)
    keep = np.flatnonzero(n_match * np.repeat(np.isfinite(cuts), 2))
    cut_values = cuts.tolist()
    ranges = [Range(data.attributes[c // 2], ("<=", ">")[c % 2],
                    cut_values[c // 2]) for c in keep.tolist()]
    return ranges, match[:, keep], n_match[keep].tolist()


class _Subset:
    """A node of the prefix trie: the rows that every exit policy with one
    bit prefix reaches.  Each part of their split search is computed once,
    on first use: the Popt effort order and optimal/worst curve areas,
    every attribute's median split, and one search per exit bit, whose
    winner leads to the child subset."""

    def __init__(self, data: Dataset, fn: ScoreFunction, rows):
        if fn.kind == "popt" and data.effort is None:
            raise UnsupportedScoreError(
                f"{data.name}: popt needs an effort column")
        if fn.kind not in ("popt", "dis2heaven"):
            raise UnsupportedScoreError(f"unknown score function {fn.kind!r}")
        self.data, self.fn, self.rows = data, fn, rows
        self.labels = np.asarray(data.labels[rows], dtype=bool)
        self._splits = {}

    @cached_property
    def _by_effort(self):
        """(effort order, defects and efforts in it, Popt bounds)."""
        efforts = self.data.effort[self.rows]
        order = np.argsort(efforts, kind="stable")
        defects, efforts = self.labels[order].astype(float), efforts[order]
        return order, defects, efforts, popt_bounds(defects, efforts)

    @cached_property
    def candidates(self):
        return _candidates(self.data, self.rows)

    def scores(self, match: np.ndarray, exit_class: bool) -> list[float]:
        """Score of each column of a (rows x candidates) match block, read
        as "matching rows are ``exit_class``, the rest the opposite"."""
        preds = match if exit_class else ~match
        if self.fn.kind == "dis2heaven":
            pos = int(np.count_nonzero(self.labels))
            neg = len(self.labels) - pos
            tp = np.count_nonzero(preds & self.labels[:, None], axis=0)
            called = np.count_nonzero(preds, axis=0)
            return [dis2heaven(Confusion(tp=t, fp=c - t, tn=neg - c + t,
                                         fn=pos - t))
                    for t, c in zip(tp.tolist(), called.tolist())]
        by_effort, defects, efforts, bounds = self._by_effort
        # Predicted positives first, then ascending effort and row index: a
        # stable partition of the effort order, one ranking per candidate.
        later = ~preds[by_effort].T
        step = max(1, _POPT_BATCH_CELLS // max(1, len(self.labels)))
        out = []
        for lo in range(0, len(later), step):
            order = np.argsort(later[lo:lo + step], axis=1, kind="stable")
            out.extend(popt_values(defects[order], efforts[order],
                                   bounds).tolist())
        return out

    def split(self, exit_class: bool):
        """(node, child subset of the rows it leaves) of the best split for
        one exit class, or None when no range matches any row.

        Ties break on (score, fewer rows consumed, attribute name, <= before
        >).
        """
        if exit_class not in self._splits:
            self._splits[exit_class] = self._search(exit_class)
        return self._splits[exit_class]

    def _search(self, exit_class: bool):
        ranges, match, n_match = self.candidates
        if not ranges:
            return None
        scores = self.scores(match, exit_class)
        key = self.fn.sort_key
        best = min(range(len(ranges)),
                   key=lambda c: (key(scores[c]), n_match[c],
                                  ranges[c].attribute, ranges[c].op != "<="))
        node = Node(range=ranges[best], exit_class=exit_class,
                    support=n_match[best])
        rest = _Subset(self.data, self.fn, self.rows[~match[:, best]])
        return node, rest

    def tree_score(self, tree: FFTree) -> float:
        """Whole-tree score over the full dataset (``rows`` must be all of
        it); Popt reuses this subset's curve areas."""
        if self.fn.kind == "popt":
            order = rank_for_popt(tree, self.data)
            return float(popt_values(self.data.labels[order].astype(float),
                                     self.data.effort[order],
                                     self._by_effort[3]))
        preds = predict_dataset(tree, self.data)
        return self.scores(preds[:, None], True)[0]


def _build(root: _Subset, policy: ExitPolicy) -> FFTree:
    """Walk one policy down the trie from the root subset of all rows."""
    nodes: list[Node] = []
    subset = root
    for bit in policy.bits:
        if len(subset.rows) == 0:
            break
        split = subset.split(bit)
        if split is None:
            break
        node, subset = split
        nodes.append(node)
    leaf_class = (not nodes[-1].exit_class) if nodes else (not policy.bits[0])
    tree = FFTree(policy=policy, nodes=tuple(nodes), leaf_class=leaf_class,
                  leaf_support=int(len(subset.rows)), score_kind=root.fn.kind)
    return replace(tree, train_score=root.tree_score(tree))


def _root(train: Dataset, fn: ScoreFunction) -> _Subset:
    _check_trainable(train, fn)
    return _Subset(train, fn, np.arange(len(train)))


def build_tree(train: Dataset, policy: ExitPolicy,
               fn: ScoreFunction = DIS2HEAVEN) -> FFTree:
    """Greedy level-by-level construction for one exit policy.

    At each level the best-scoring range exits with the policy's class for
    that level; the rows it does not match move down.  Rows exhausted (or no
    range scoreable) before the last level truncate the tree early.
    """
    return _build(_root(train, fn), policy)


def tree_score(tree: FFTree, data: Dataset, fn: ScoreFunction) -> float:
    """Whole-tree score on a dataset (training or test)."""
    return _Subset(data, fn, np.arange(len(data))).tree_score(tree)


def grow(train: Dataset, depth: int = 4,
         fn: ScoreFunction = DIS2HEAVEN) -> tuple[FFTree, list[FFTree]]:
    """Train all 2^depth exit-policy trees and select the best on train.

    Policies that share a bit prefix share its searches (see the module
    docstring).  Ties between equally scored trees go to the smaller policy
    string.  Returns (best tree, all candidates in policy order).
    """
    if not 1 <= depth <= MAX_DEPTH:
        raise TrainingError(
            f"depth must be between 1 and {MAX_DEPTH}, got {depth}")
    root = _root(train, fn)
    trees = [_build(root, policy) for policy in all_policies(depth)]
    best = min(trees, key=lambda t: (fn.sort_key(t.train_score),
                                     t.policy_string))
    return best, trees


def _check_trainable(train: Dataset, fn: ScoreFunction):
    if not train.binary:
        raise TrainingError(f"{train.name}: labels must be binarized first")
    if len(train) < 2:
        raise TrainingError(f"{train.name}: need at least 2 training rows, "
                            f"got {len(train)}")
    if len(train.attributes) < 1:
        raise TrainingError(f"{train.name}: need at least one attribute")
    if fn.kind == "popt" and train.effort is None:
        raise UnsupportedScoreError(
            f"{train.name}: popt training needs an effort column")


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


def predict_dataset(tree: FFTree, data: Dataset) -> np.ndarray:
    return route_dataset(tree, data)[1]


def rank_for_popt(tree: FFTree, data: Dataset) -> np.ndarray:
    """Most-suspicious-first row order implied by the tree's exits.

    Rows leaving through true exits come first (earlier exits first), then
    rows leaving through false exits (later exits first — the longer a row
    survived, the closer it came to a true exit).  Ties break on ascending
    effort, then row index.
    """
    if data.effort is None:
        raise UnsupportedScoreError(f"{data.name}: ranking needs effort")
    exit_idx, classes = route_dataset(tree, data)
    bucket = np.where(classes, 0, 1)
    within = np.where(classes, exit_idx, -exit_idx)
    idx = np.arange(len(data))
    return np.lexsort((idx, data.effort, within, bucket))


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


_NODE_RE = re.compile(
    r"^(if|else if)\s+(\S+)\s*(<=|>)\s*([-+eE0-9.]+)\s+then\s+(true|false)$")
_LEAF_RE = re.compile(r"^else\s+(true|false)$")


def parse(text: str) -> FFTree:
    """Read a rendered tree back (supports are unknown, stored as 0).

    Raises DatasetError naming the offending line on malformed input.
    """
    nodes = []
    leaf_class = None
    lines = [ln.split("#", 1)[0].strip() for ln in text.splitlines()]
    lines = [ln for ln in lines if ln]
    for no, line in enumerate(lines, start=1):
        if leaf_class is not None:
            raise DatasetError(f"model text line {no}: content after final else")
        m = _NODE_RE.match(line)
        if m:
            head, attr, op, cut, cls = m.groups()
            if (head == "if") != (no == 1):
                raise DatasetError(
                    f"model text line {no}: expected "
                    f"{'if' if no == 1 else 'else if'}")
            try:
                rng = Range(attr, op, float(cut))
            except ValueError as exc:
                raise DatasetError(
                    f"model text line {no}: bad number {cut!r} ({exc})")
            nodes.append(Node(range=rng, exit_class=cls == "true", support=0))
            continue
        m = _LEAF_RE.match(line)
        if m:
            leaf_class = m.group(1) == "true"
            continue
        raise DatasetError(f"model text line {no}: cannot parse {line!r}")
    if not nodes:
        raise DatasetError("model text has no decision lines")
    if leaf_class is None:
        raise DatasetError("model text has no final else line")
    digits = ExitPolicy(tuple(n.exit_class for n in nodes)).string
    return FFTree(policy=_checked_policy(digits, len(nodes), nodes, leaf_class),
                  nodes=tuple(nodes), leaf_class=leaf_class, leaf_support=0)


def _checked_policy(digits, depth, nodes, leaf_class: bool) -> ExitPolicy:
    """The exit policy a model spells as ``digits``, checked against the
    rest of the model; DatasetError names the first rule it breaks.

    Trees that ran out of rows keep fewer nodes than their policy has
    levels, so the leaf opposes the last node (or the first digit when
    there are none), not necessarily the policy's final digit.
    """
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
    return ExitPolicy(bits)


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


def _exit_class(value) -> bool:
    if not isinstance(value, bool):
        raise TypeError(f"class {value!r} is not a JSON boolean")
    return value


def tree_from_dict(payload: dict) -> FFTree:
    try:
        depth = int(payload["depth"])
        digits = payload["policy"]
        nodes = tuple(
            Node(range=Range(d["attribute"], d["op"], float(d["cut"])),
                 exit_class=_exit_class(d["class"]),
                 support=int(d["support"]))
            for d in payload["nodes"])
        leaf = payload["final_leaf"]
        leaf_class = _exit_class(leaf["class"])
        leaf_support = int(leaf["support"])
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise DatasetError(f"bad model payload: {exc}") from exc
    policy = _checked_policy(digits, depth, nodes, leaf_class)
    return FFTree(policy=policy, nodes=nodes, leaf_class=leaf_class,
                  leaf_support=leaf_support,
                  train_score=payload.get("train_score"),
                  score_kind=payload.get("score"))
