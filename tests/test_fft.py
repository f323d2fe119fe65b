"""Tests for tree growing, routing, ranking and the text/JSON forms."""

import gc
import json
import weakref

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings, strategies as st

from frugal import fft, metrics, synth
from frugal.dataset import Dataset, LabelRule, binarize
from frugal.errors import DatasetError, TrainingError, UnsupportedScoreError
from frugal.fft import (FFTree, Node, Range, build_tree, discretize, grow,
                        rank_for_popt, render, route_dataset, score_dataset,
                        score_range, tree_from_dict, tree_score, tree_to_dict)
from frugal.metrics import DIS2HEAVEN, POPT

import oracles
from conftest import dataset_rows, make_dataset, one_row


# ------------------------------------------------------------------- Range

def test_range_matching_boundaries():
    edge = np.array([3.5, 3.5000001])
    assert Range("a", "<=", 3.5).matches_array(edge).tolist() == [True, False]
    assert Range("a", ">", 3.5).matches_array(edge).tolist() == [False, True]


def test_range_never_matches_missing():
    arr = np.array([1.0, np.nan, 9.0])
    assert Range("a", "<=", 5.0).matches_array(arr).tolist() == [True, False,
                                                                 False]
    assert Range("a", ">", 5.0).matches_array(arr).tolist() == [False, False,
                                                                True]


def test_range_validation_and_display():
    with pytest.raises(ValueError, match="op"):
        Range("a", "<", 1.0)
    with pytest.raises(ValueError, match="finite"):
        Range("a", "<=", float("inf"))
    assert Range("rfc", ">", 32.0).display == "rfc > 32"
    assert Range("a", "<=", 3.5).display == "a <= 3.5"


# ----------------------------------------------------------- exit policies

def _policy_string(bits):
    return FFTree(policy=bits, nodes=(), leaf_class=not bits[0],
                  leaf_support=0).policy_string


def test_policy_string_appends_opposite_digit():
    assert _policy_string((False, False, True, False)) == "00101"
    assert _policy_string((True,)) == "10"
    assert _policy_string((False,)) == "01"
    assert _policy_string((True, True, True, True)) == "11110"


def test_policy_needs_a_level(six_rows):
    with pytest.raises(TrainingError, match="depth"):
        build_tree(six_rows, ())
    no_levels = {"depth": 0, "policy": "1", "nodes": [],
                 "final_leaf": {"class": False, "support": 6}}
    with pytest.raises(DatasetError, match="does not match depth"):
        tree_from_dict(no_levels)


# -------------------------------------------------------------- discretize

def test_discretize_median_cut(six_rows):
    lo, hi = discretize(six_rows, "a")
    assert (lo.op, lo.cut) == ("<=", 3.5)
    assert (hi.op, hi.cut) == (">", 3.5)


def test_discretize_recomputes_on_subset(six_rows):
    lo, _ = discretize(six_rows, "a", subset=np.array([0, 1, 2]))
    assert lo.cut == 2.0


def test_discretize_skips_missing_and_can_vanish(eight_rows):
    lo, _ = discretize(eight_rows, "z")   # one missing cell out of eight
    assert lo.cut == oracles.median_of([3, 1, 4, 1, 5, 2, 6])
    blank = make_dataset(("m",), [[None], [None]], labels=[True, False])
    assert discretize(blank, "m") == []


def test_infinite_medians_give_no_cut():
    inf = float("inf")
    ds = make_dataset(("m", "n"),
                      [[-inf, 1], [-inf, 2], [-inf, 3], [4, 4], [inf, 5],
                       [inf, 6]],
                      labels=[True, True, False, False, True, False],
                      effort=[1, 2, 3, 4, 5, 6])
    assert discretize(ds, "m", subset=np.array([0, 1, 3])) == []
    for depth in (1, 2, 3):
        for fn in (DIS2HEAVEN, POPT):
            for tree in grow(ds, depth=depth, fn=fn)[1]:
                assert all(np.isfinite(n.range.cut) for n in tree.nodes)
    # a (-inf, +inf) middle pair has a NaN mean, and no cut, without the
    # invalid-value warning that the suite's filter would raise
    pair = ds.subset([0, 1, 4, 5])
    assert discretize(pair, "m") == []
    for fn in (DIS2HEAVEN, POPT):
        for tree in grow(pair, depth=2, fn=fn)[1]:
            assert all(n.range.attribute == "n" for n in tree.nodes)


def test_huge_finite_medians_halve_before_adding():
    # the middle pair sums past the float range; under the suite's
    # RuntimeWarning-as-error filter an overflow warning would raise
    values = [1e308, 1.2e308, 1.5e308, 1.7e308]
    ds = make_dataset(("big",), [[v] for v in values],
                      labels=[True, True, False, False], effort=[1, 2, 3, 4])
    cut = 1.2e308 / 2 + 1.5e308 / 2
    assert oracles.median_of(values) == cut
    assert [r.cut for r in discretize(ds, "big")] == [cut, cut]
    for fn in (DIS2HEAVEN, POPT):
        tree = grow(ds, depth=1, fn=fn)[0]
        assert [(n.range.attribute, n.range.cut) for n in tree.nodes] \
            == [("big", cut)]


def test_discretize_constant_column():
    ds = make_dataset(("c",), [[4], [4], [4]], labels=[True, False, True])
    lo, hi = discretize(ds, "c")
    assert lo.cut == 4.0
    assert lo.matches_array(ds.column("c")).all()
    assert not hi.matches_array(ds.column("c")).any()


# ------------------------------------------------------------- score_range

def test_score_range_perfect_and_inverted_split(six_rows):
    rng = Range("a", "<=", 3.5)
    assert score_range(rng, six_rows, exit_class=True, fn=DIS2HEAVEN) == 0.0
    assert score_range(rng, six_rows, exit_class=False, fn=DIS2HEAVEN) == 1.0


def test_score_range_matches_oracle(eight_rows):
    rows = dataset_rows(eight_rows)
    labels = eight_rows.labels.tolist()
    efforts = eight_rows.effort.tolist()
    indices = list(range(len(rows)))
    for attr in eight_rows.attributes:
        for rng in discretize(eight_rows, attr):
            for exit_class in (False, True):
                matched = [oracles._matches(r, rng.attribute, rng.op, rng.cut)
                           for r in rows]
                preds = [exit_class if m else not exit_class for m in matched]
                for fn in (DIS2HEAVEN, POPT):
                    want = oracles._local_score(rows, labels, efforts,
                                                indices, preds, fn.kind)
                    got = score_range(rng, eight_rows, exit_class, fn)
                    assert got == want, (rng.display, exit_class, fn.kind)


def test_score_range_requires_binary_labels():
    raw = make_dataset(("a",), [[1], [2]], labels=[0, 3], binary=False)
    with pytest.raises(TrainingError, match="binarized"):
        score_range(Range("a", "<=", 1.5), raw, True, DIS2HEAVEN)


def test_score_range_popt_needs_effort(six_rows):
    no_effort = make_dataset(("a",), [[1], [2]], labels=[True, False])
    with pytest.raises(UnsupportedScoreError, match="effort"):
        score_range(Range("a", "<=", 1.5), no_effort, True, POPT)


def test_score_range_popt_breaks_effort_ties_by_row_index():
    # with equal efforts the Popt ranking, and so the score, follows row
    # index, not the order in which the subset lists the rows
    ds = make_dataset(("a",), [[v] for v in range(1, 7)],
                      labels=[True, False, False, True, False, True],
                      effort=[5] * 6)
    rng = Range("a", "<=", 3.5)
    want = oracles._local_score(dataset_rows(ds), ds.labels.tolist(),
                                ds.effort.tolist(), list(range(6)),
                                [True] * 3 + [False] * 3, "popt")
    assert want == 0.4444444444444444
    for subset in (np.arange(6), np.arange(6)[::-1], [3, 1, 5, 0, 2, 4]):
        assert score_range(rng, ds, True, POPT, subset) == want


# -------------------------------------------------------------- build_tree

def test_build_tree_level_trace(eight_rows):
    """Node-by-node agreement with the exhaustive oracle on one policy."""
    tree = build_tree(eight_rows, (False, True, True, True),
                      DIS2HEAVEN)
    assert tree.policy_string == "01110"
    got = [(n.range.attribute, n.range.op, n.range.cut, n.exit_class,
            n.support) for n in tree.nodes]
    assert got == [("y", ">", 32.5, False, 4),
                   ("x", "<=", 4.0, True, 2),
                   ("x", "<=", 6.0, True, 1),
                   ("x", "<=", 7.0, True, 1)]
    assert tree.leaf_class is False
    assert tree.leaf_support == 0
    assert tree.train_score == 0.0
    assert not tree.truncated


@pytest.mark.parametrize("fn", [DIS2HEAVEN, POPT], ids=lambda f: f.kind)
def test_build_tree_matches_oracle_for_every_policy(eight_rows, fn):
    rows = dataset_rows(eight_rows)
    labels = eight_rows.labels.tolist()
    efforts = eight_rows.effort.tolist()
    for policy in oracles.all_bit_vectors(3):
        tree = build_tree(eight_rows, policy, fn)
        want = oracles.build_tree_oracle(rows, labels, efforts,
                                         policy, fn.kind)
        got_nodes = [{"attribute": n.range.attribute, "op": n.range.op,
                      "cut": n.range.cut, "class": n.exit_class,
                      "support": n.support} for n in tree.nodes]
        assert got_nodes == want["nodes"], oracles.policy_string_of(policy)
        assert tree.leaf_class == want["leaf_class"]
        assert tree.leaf_support == want["leaf_support"]
        assert tree.train_score == oracles.tree_score_oracle(
            want, rows, labels, efforts, fn.kind)


def test_build_tree_supports_partition_rows(twelve_rows):
    for policy in oracles.all_bit_vectors(4):
        tree = build_tree(twelve_rows, policy, DIS2HEAVEN)
        consumed = sum(n.support for n in tree.nodes) + tree.leaf_support
        assert consumed == len(twelve_rows)


def test_build_tree_truncates_when_rows_run_out():
    ds = make_dataset(("c",), [[5], [5], [5], [5]],
                      labels=[True, True, False, False])
    tree = build_tree(ds, (True, False, True, False), DIS2HEAVEN)
    assert len(tree.nodes) == 1          # the constant cut consumes all rows
    assert tree.truncated
    assert tree.leaf_support == 0
    assert tree.leaf_class is False      # opposite of the only exit


def test_build_tree_truncates_when_nothing_scoreable():
    ds = make_dataset(("m",), [[None], [None], [None]],
                      labels=[True, False, True])
    tree = build_tree(ds, (True, True), DIS2HEAVEN)
    assert tree.nodes == ()
    assert tree.truncated
    assert tree.leaf_class is False      # opposite of the first policy digit
    assert tree.leaf_support == 3


def test_single_class_data_yields_full_recall():
    ds = make_dataset(("c", "d"), [[7, 1], [7, 2], [7, 3], [7, 4]],
                      labels=[True, True, True, True])
    best, _ = grow(ds, depth=4, fn=DIS2HEAVEN)
    preds = route_dataset(best, ds)[1]
    assert preds.all()                   # recall 1.0 on the training rows
    assert best.train_score == 0.0       # no negatives, so far defaults to 0


# -------------------------------------------------------------------- grow

@pytest.mark.parametrize("fn", [DIS2HEAVEN, POPT], ids=lambda f: f.kind)
def test_grow_without_positives_scores_like_the_oracle(fn):
    ds = make_dataset(("c", "d"), [[1, 4], [2, 3], [3, 2], [4, 1]],
                      labels=[False] * 4, effort=[5, 1, 3, 2])
    rows, efforts = dataset_rows(ds), ds.effort.tolist()
    _, trees = grow(ds, depth=2, fn=fn)
    for tree in trees:
        want = oracles.build_tree_oracle(rows, [False] * 4, efforts,
                                         tree.policy, fn.kind)
        assert tree.train_score == oracles.tree_score_oracle(
            want, rows, [False] * 4, efforts, fn.kind)
        if fn is POPT:
            assert tree.train_score == 0.5


def test_all_policies_count_and_order(twelve_rows):
    """grow enumerates every exit policy once, in lexicographic order."""
    _, trees = grow(twelve_rows, depth=4, fn=DIS2HEAVEN)
    assert len(trees) == 16
    strings = [t.policy_string for t in trees]
    assert strings[0] == "00001"
    assert strings[-1] == "11110"
    assert strings == sorted(strings)
    assert strings == [oracles.policy_string_of(bits)
                       for bits in oracles.all_bit_vectors(4)]
    with pytest.raises(TrainingError, match="depth"):
        grow(twelve_rows, depth=0)


def test_grow_returns_all_policies_in_order(twelve_rows):
    best, trees = grow(twelve_rows, depth=4, fn=DIS2HEAVEN)
    assert len(trees) == 16
    assert [list(t.policy) for t in trees] == oracles.all_bit_vectors(4)
    assert best in trees


def test_grow_pinned_winners(twelve_rows):
    best_d2h, _ = grow(twelve_rows, depth=4, fn=DIS2HEAVEN)
    assert best_d2h.policy_string == "01101"
    assert best_d2h.train_score == 0.11785113019775789
    best_popt, _ = grow(twelve_rows, depth=4, fn=POPT)
    assert best_popt.policy_string == "10001"
    assert best_popt.train_score == 0.9782608695652175


@pytest.mark.parametrize("fn", [DIS2HEAVEN, POPT], ids=lambda f: f.kind)
def test_grow_matches_exhaustive_oracle(twelve_rows, fn):
    rows = dataset_rows(twelve_rows)
    labels = twelve_rows.labels.tolist()
    efforts = twelve_rows.effort.tolist()
    want_policy, want_score, _ = oracles.best_tree_oracle(
        rows, labels, efforts, 4, fn.kind)
    best, _ = grow(twelve_rows, depth=4, fn=fn)
    assert best.policy_string == want_policy
    assert best.train_score == want_score


@pytest.mark.parametrize("fn", [DIS2HEAVEN, POPT], ids=lambda f: f.kind)
@settings(max_examples=12, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(st.permutations(list(range(12))))
def test_grow_invariant_under_row_order(twelve_rows, fn, order):
    base, _ = grow(twelve_rows, depth=3, fn=fn)
    shuffled, _ = grow(twelve_rows.subset(order), depth=3, fn=fn)
    assert shuffled.policy_string == base.policy_string
    assert shuffled.train_score == base.train_score
    assert [(n.range, n.exit_class, n.support) for n in shuffled.nodes] \
        == [(n.range, n.exit_class, n.support) for n in base.nodes]


def _trie_data(seed, rows):
    """Synthetic defect rows with what the shared search must get right:
    injected missing cells, a constant column, and rare positives, so that
    some row subsets searched deep in the trie hold no positives."""
    rng = np.random.default_rng(seed)
    raw = synth.make_corpus(names=("ant",), seed=seed, versions=1,
                            rows=rows)["ant"][0]
    keep = ("wmc", "cbo", "rfc", "lcom", "ce")
    values = raw.values[:, [raw.attributes.index(a) for a in keep]].copy()
    values[rng.random(values.shape) < 0.1] = np.nan
    values = np.column_stack([values, np.full(rows, 7.0)])
    return Dataset(name="trie", version="1", attributes=keep + ("const",),
                   values=values, labels=raw.labels >= 3, effort=raw.effort)


def _grown_like_the_oracle(train, fn):
    """Every tree ``grow`` trains at depths 1-5, each checked node by node,
    leaf and training score against the per-policy oracle build."""
    rows = dataset_rows(train)
    labels = train.labels.tolist()
    efforts = train.effort.tolist()
    trees = [tree for depth in range(1, 6)
             for tree in grow(train, depth, fn)[1]]
    for tree in trees:
        want = oracles.build_tree_oracle(rows, labels, efforts, tree.policy,
                                         fn.kind)
        got_nodes = [{"attribute": n.range.attribute, "op": n.range.op,
                      "cut": n.range.cut, "class": n.exit_class,
                      "support": n.support} for n in tree.nodes]
        assert got_nodes == want["nodes"], tree.policy_string
        assert tree.leaf_class == want["leaf_class"]
        assert tree.leaf_support == want["leaf_support"]
        assert tree.train_score == oracles.tree_score_oracle(
            want, rows, labels, efforts, fn.kind)
    return trees


def _searched_subset_without_positives(tree, data):
    """True when rows left after some node (and searched at the next
    level) include no positive."""
    left = np.ones(len(data), dtype=bool)
    for node in tree.nodes[:tree.depth - 1]:
        left &= ~node.range.matches_array(data.column(node.range.attribute))
        if left.any() and not data.labels[left].any():
            return True
    return False


@pytest.mark.parametrize("fn", [DIS2HEAVEN, POPT], ids=lambda f: f.kind)
@pytest.mark.parametrize("seed, n_rows", [(3, 40), (5, 80), (7, 120)])
def test_grow_shared_search_matches_per_policy_builds(seed, n_rows, fn):
    train = _trie_data(seed, n_rows)
    assert np.isnan(train.values).any() and 0 < train.labels.sum() < n_rows
    trees = _grown_like_the_oracle(train, fn)
    assert any(_searched_subset_without_positives(t, train) for t in trees)


@pytest.mark.parametrize("fn", [DIS2HEAVEN, POPT], ids=lambda f: f.kind)
@pytest.mark.parametrize("seed", range(10))
def test_grow_matches_the_oracle_on_infinite_cells(seed, fn):
    rng = np.random.default_rng(seed)
    n_rows = 16
    cells = np.array([-np.inf, np.inf, np.nan, 1.0, 2.0, 3.0])
    values = rng.choice(cells, size=(n_rows, 3))
    values[:, 2] = np.where(rng.random(n_rows) < 0.5, -np.inf, np.inf)
    train = Dataset(name="inf", version="1", attributes=("p", "q", "r"),
                    values=values, labels=rng.random(n_rows) < 0.4,
                    effort=rng.integers(1, 5, n_rows).astype(float))
    _grown_like_the_oracle(train, fn)


def _tied_data(seed, rows):
    """``_trie_data`` plus two columns whose medians sit on many tied
    values: one of three levels, and a copy of ``wmc`` under a name that
    sorts before it, so that equal scores must break on the name."""
    base = _trie_data(seed, rows)
    levels = np.random.default_rng(seed).integers(0, 3, rows).astype(float)
    values = np.column_stack([base.values, levels,
                              base.values[:, base.attributes.index("wmc")]])
    return Dataset(name="tied", version="1",
                   attributes=base.attributes + ("level", "awmc"),
                   values=values, labels=base.labels, effort=base.effort)


@pytest.mark.parametrize("fn", [DIS2HEAVEN, POPT], ids=lambda f: f.kind)
@pytest.mark.parametrize("seed, n_rows", [(5, 80), (7, 120), (11, 150)])
def test_trie_scores_equal_routed_scores(seed, n_rows, fn):
    """grow reads each tree's training score off the rows its nodes exit;
    routing every row through the finished tree must give the same float,
    also for trees cut short and for leaves that exit no rows."""
    train = _tied_data(seed, n_rows)
    assert np.isnan(train.values).any()
    assert (train.values[:, train.attributes.index("const")] == 7.0).all()
    # rows with no values match no range, so a subset of only such rows
    # ends its trees early with rows still in the leaf; twelve rows run
    # out within a few levels, which leaves trees with empty leaves
    values = train.values.copy()
    values[::4] = np.nan
    blank = Dataset(name=train.name, version=train.version,
                    attributes=train.attributes, values=values,
                    labels=train.labels, effort=train.effort)
    names, shapes = set(), set()
    for data in (train, blank, train.subset(range(12))):
        for depth in range(1, 7):
            _, trees = grow(data, depth, fn)
            for tree in trees:
                assert tree.train_score == tree_score(tree, data, fn), \
                    tree.policy_string
                assert all(n.support > 0 for n in tree.nodes)
                shapes.add((tree.truncated, tree.leaf_support == 0))
                if data is train:
                    names.update(n.range.attribute for n in tree.nodes)
    assert "awmc" in names and "wmc" not in names
    assert shapes >= {(True, False), (True, True), (False, True)}


def test_tie_break_prefers_the_smaller_name_in_a_later_column():
    # "a" is a copy of a column one place later: every split on either
    # scores and consumes the same, and the name decides ("a" < "a\0" in
    # Python, though numpy's str dtype would read them as equal)
    for later in ("b", "a\0"):
        ds = make_dataset((later, "a"), [[v, v] for v in range(1, 7)],
                          labels=[True, True, True, False, False, False],
                          effort=[10, 20, 30, 40, 50, 60])
        for fn in (DIS2HEAVEN, POPT):
            for depth in (1, 3):
                trees = grow(ds, depth, fn)[1]
                assert {n.range.attribute for t in trees
                        for n in t.nodes} == {"a"}
        assert render(build_tree(ds, (True,))) \
            == "if a <= 3.5 then true\nelse false"


def _tie_heavy_data(seed, rows):
    """Small integer cells (so many split scores tie), 10% of them missing,
    a constant column, equal efforts, and names not in column order."""
    rng = np.random.default_rng(seed)
    values = rng.integers(0, 4, size=(rows, 5)).astype(float)
    values[rng.random(values.shape) < 0.1] = np.nan
    values[:, 2] = 2.0
    labels = rng.random(rows) < 0.4
    labels[0] = True
    return Dataset(name="ties", version="1",
                   attributes=("m", "b", "const", "a", "k"), values=values,
                   labels=labels, effort=np.full(rows, 3.0))


@pytest.mark.parametrize("fn", [DIS2HEAVEN, POPT], ids=lambda f: f.kind)
@pytest.mark.parametrize("seed", [3, 7, 11])
def test_grow_invariant_under_column_order(seed, fn):
    """Split ties break on attribute names, so permuting the columns
    changes no tree."""
    data = _tie_heavy_data(seed, 40)
    order = np.random.default_rng(seed).permutation(len(data.attributes))
    permuted = Dataset(name=data.name, version=data.version,
                       attributes=tuple(data.attributes[j] for j in order),
                       values=data.values[:, order], labels=data.labels,
                       effort=data.effort)
    assert permuted.attributes != data.attributes
    for depth in range(1, 6):
        want = [tree_to_dict(t) for t in grow(data, depth, fn)[1]]
        assert [tree_to_dict(t) for t in grow(permuted, depth, fn)[1]] \
            == want


@pytest.mark.parametrize("fn", [DIS2HEAVEN, POPT], ids=lambda f: f.kind)
def test_grow_trees_do_not_depend_on_the_batch_size(fn, monkeypatch):
    """Split scores, tree scores and bounds are computed in batches of
    about _POPT_BATCH_CELLS cells, and a level's segments searched in
    blocks of about _SEARCH_CELLS, to bound memory; one ranking (or
    segment) per batch and all in one batch give the same trees."""
    raw = synth.make_corpus(names=("ant",), seed=5, versions=1, rows=200)
    train = binarize(raw["ant"][0], LabelRule.bug_counts())
    default = grow(train, 8, fn)
    for cells in (1, 10 ** 9):
        monkeypatch.setattr(fft, "_POPT_BATCH_CELLS", cells)
        monkeypatch.setattr(fft, "_SEARCH_CELLS", cells)
        assert grow(train, 8, fn) == default


@pytest.mark.parametrize("fn", [DIS2HEAVEN, POPT], ids=lambda f: f.kind)
def test_grow_searches_each_prefix_once(fn, monkeypatch):
    counts = {"blocks": 0, "searches": 0, "orders": 0}

    def counted(name, func, tally=lambda *args: 1):
        def wrapper(*args, **kwargs):
            counts[name] += tally(*args)
            return func(*args, **kwargs)
        return wrapper

    # one median block per searched subset, two searches (one per exit
    # class) per non-empty segment, and every Popt subset's bounds from
    # the root's orders, sorted once
    monkeypatch.setattr(fft, "_medians", counted("blocks", fft._medians))
    monkeypatch.setattr(fft, "_search", counted(
        "searches", fft._search,
        lambda stack, fn, rows, sizes: 2 * np.count_nonzero(sizes)))
    monkeypatch.setattr(fft, "popt_orders",
                        counted("orders", metrics.popt_orders))
    raw = synth.make_corpus(names=("ant",), seed=7, versions=1, rows=300)
    _, trees = grow(binarize(raw["ant"][0], LabelRule.bug_counts()), depth=4,
                    fn=fn)
    assert not any(t.truncated for t in trees)
    assert counts["blocks"] == 15
    assert counts["searches"] == 30
    assert counts["orders"] == (1 if fn is POPT else 0)


def test_grow_frees_its_trie(monkeypatch):
    """The stacked sets and every level's rows are freed by reference
    counting alone once grow returns; a reference cycle would keep them
    until the cyclic collector runs."""
    made = []
    init, search = fft._Stack.__init__, fft._search

    def tracked(self, *args):
        init(self, *args)
        made.append(weakref.ref(self))

    def searched(stack, fn, rows, sizes):
        made.append(weakref.ref(rows))
        return search(stack, fn, rows, sizes)

    monkeypatch.setattr(fft._Stack, "__init__", tracked)
    monkeypatch.setattr(fft, "_search", searched)
    raw = synth.make_corpus(names=("ant",), seed=7, versions=1, rows=300)
    train = binarize(raw["ant"][0], LabelRule.bug_counts())
    gc.disable()
    try:
        grow(train, depth=4, fn=POPT)
        alive = [ref for ref in made if ref() is not None]
    finally:
        gc.enable()
    assert len(made) == 5
    assert alive == []


@st.composite
def _training_sets(draw):
    """A batch of 1-5 training sets of 2-40 rows, with effort: integer,
    tied, NaN-heavy, constant and copied columns, sets of one class, and
    attribute lists drawn from one pool, so sets share names in permuted
    orders and share or differ in their attribute counts."""
    sets = []
    for k in range(draw(st.integers(1, 5))):
        rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
        n = draw(st.integers(2, 40))
        names = draw(st.permutations(["a", "b", "c", "d", "e"]))
        width = draw(st.integers(1, 4))
        columns = []
        for kind in draw(st.lists(st.sampled_from(
                ["integers", "floats", "nan", "constant", "copy"]),
                min_size=width, max_size=width)):
            column = (rng.normal(0, 10, n) if kind == "floats"
                      else np.full(n, 2.0) if kind == "constant"
                      else columns[-1].copy() if kind == "copy" and columns
                      else rng.integers(0, 4, n).astype(float))
            if kind == "nan":
                column[rng.random(n) < 0.7] = np.nan
            columns.append(column)
        labels = draw(st.sampled_from(["mixed", "rare", "true", "false"]))
        labels = (np.full(n, labels == "true") if labels in ("true", "false")
                  else rng.random(n) < (0.4 if labels == "mixed" else 0.1))
        effort = (np.full(n, 3.0) if draw(st.booleans())
                  else rng.integers(1, 4, n).astype(float))
        sets.append(Dataset(name=f"s{k}", version="1",
                            attributes=tuple(names[:width]),
                            values=np.column_stack(columns), labels=labels,
                            effort=effort))
    return sets


@settings(max_examples=150, deadline=None)
@given(_training_sets(), st.integers(1, 6),
       st.sampled_from([DIS2HEAVEN, POPT]))
def test_a_sets_trees_do_not_depend_on_its_batch(trains, depth, fn):
    batch = fft.grow_many(trains, depth, fn)
    assert len(batch) == len(trains)
    for train, grown in zip(trains, batch):
        assert grown == fft.grow_many([train], depth, fn)[0]


def test_grow_many_checks_every_set_before_growing(monkeypatch):
    good = make_dataset(("a",), [[1], [2]], labels=[True, False])
    monkeypatch.setattr(fft, "_grow_stack", None)    # never reached
    with pytest.raises(TrainingError, match="bad: need at least 2"):
        fft.grow_many([good, make_dataset(("a",), [[1]], labels=[True],
                                          name="bad")], 2, DIS2HEAVEN)
    with pytest.raises(UnsupportedScoreError, match="toy: popt needs"):
        fft.grow_many([good], 2, POPT)
    with pytest.raises(TrainingError, match="depth"):
        fft.grow_many([good], 0, DIS2HEAVEN)
    assert fft.grow_many([], 2, DIS2HEAVEN) == []


def test_grow_rejects_depth_below_one(six_rows):
    for depth in (0, -2):
        with pytest.raises(TrainingError, match="depth"):
            grow(six_rows, depth=depth)


def test_grow_rejects_depth_above_the_cap(six_rows):
    assert fft.MAX_DEPTH == 12
    for depth in (fft.MAX_DEPTH + 1, 10 ** 6):
        with pytest.raises(TrainingError, match="between 1 and 12"):
            grow(six_rows, depth=depth)


def test_grow_validates_input(six_rows):
    raw = make_dataset(("a",), [[1], [2]], labels=[0, 2], binary=False)
    with pytest.raises(TrainingError, match="binarized"):
        grow(raw)
    with pytest.raises(TrainingError, match="at least 2"):
        grow(make_dataset(("a",), [[1]], labels=[True]))
    with pytest.raises(TrainingError, match="attribute"):
        grow(make_dataset((), [[], []], labels=[True, False]))
    no_effort = make_dataset(("a",), [[1], [2]], labels=[True, False])
    with pytest.raises(UnsupportedScoreError, match="effort"):
        grow(no_effort, fn=POPT)


# ------------------------------------------------------- the Popt prefilter

@st.composite
def _popt_data(draw):
    """A small dataset with effort and what the prefilter must survive:
    integer-valued, identical and NaN-heavy columns, tied or constant
    efforts, and as few as one positive (or none)."""
    n = draw(st.integers(2, 30))
    columns = []
    for _ in range(draw(st.integers(1, 4))):
        kind = draw(st.sampled_from(["integers", "floats", "copy", "nan"]))
        if kind == "copy" and columns:
            columns.append(list(columns[-1]))
            continue
        cells = (st.floats(-50, 50, allow_nan=False) if kind == "floats"
                 else st.integers(0, 3).map(float))
        if kind == "nan":
            cells = st.one_of(st.none(), st.none(), st.none(), cells)
        columns.append(draw(st.lists(cells, min_size=n, max_size=n)))
    efforts = draw(st.sampled_from([
        st.just([3.0] * n),
        st.lists(st.integers(1, 3).map(float), min_size=n, max_size=n),
        st.lists(st.floats(1e-3, 1e4), min_size=n, max_size=n)]))
    if draw(st.booleans()):
        positive = draw(st.integers(0, n - 1))
        labels = [i == positive for i in range(n)]
    else:
        labels = draw(st.lists(st.booleans(), min_size=n, max_size=n))
    return make_dataset([f"a{j}" for j in range(len(columns))],
                        list(zip(*columns)), labels=labels,
                        effort=draw(efforts))


@st.composite
def _bounded_sets(draw):
    """1-3 effort sets for the Popt bounds: tied densities (equal efforts
    on rows of one label), subnormal and huge efforts, and sets with no
    positive."""
    sets = []
    for k in range(draw(st.integers(1, 3))):
        n = draw(st.integers(1, 30))
        efforts = st.sampled_from([1.0, 2.0, 3.0, 5e-324, 1e-310, 4e-310,
                                   1e300])
        effort = draw(st.lists(efforts, min_size=n, max_size=n))
        labels = draw(st.lists(st.booleans(), min_size=n, max_size=n))
        sets.append(make_dataset(("a",), [[i] for i in range(n)],
                                 labels=labels, effort=effort, name=f"s{k}"))
    return sets


@settings(max_examples=300, deadline=None)
@given(_bounded_sets(), st.data())
def test_segment_bounds_equal_popt_bounds_on_the_segments_rows(trains, data):
    """Each segment's bounds, gathered from its set's root orders, equal
    ``popt_bounds`` on its rows: on random segments and on those a depth-4
    search reaches."""
    stack = fft._Stack(trains, POPT)
    start = np.cumsum(stack.sizes) - stack.sizes
    segments = [start[g] + np.flatnonzero(data.draw(st.lists(
        st.booleans(), min_size=n, max_size=n)))
        for g, n in enumerate(stack.sizes.tolist())
        for _ in range(data.draw(st.integers(1, 4)))]
    searched = []

    def recorded(stack, fn, rows, sizes):
        ends = np.cumsum(sizes)
        searched.extend(np.split(rows, ends[:-1]))
        return search(stack, fn, rows, sizes)
    search = fft._search
    fft._search = recorded
    try:
        fft._grow_stack(trains, 4, POPT)
    finally:
        fft._search = search
    segments = [rows for rows in segments + searched if len(rows)]
    s_opt, s_worst = fft._segment_bounds(
        stack, np.concatenate(segments), np.array(list(map(len, segments))))
    for rows, best, worst in zip(segments, s_opt, s_worst):
        want = metrics.popt_bounds(stack.labels[rows].astype(float),
                                   stack.effort[rows])
        assert (None if np.isnan(best) else (best, worst)) == want


def _root(data, fn=POPT):
    """The one-set stack of ``data``, its root segment (rows and size) and
    that segment's candidates."""
    stack = fft._Stack([data], fn)
    rows, n = np.arange(len(data)), np.array([len(data)])
    return stack, rows, n, fft._candidates(stack, rows, n, np.array([0]))


@settings(max_examples=300, deadline=None)
@given(_popt_data())
def test_popt_split_equals_the_all_candidates_oracle(data):
    """At the root and one level down, for both exit classes, the
    prefiltered search picks the split that exact scoring of every
    candidate picks."""
    rows = dataset_rows(data)
    labels, efforts = data.labels.tolist(), data.effort.tolist()
    stack = fft._Stack([data], POPT)
    order = stack.source        # stack row -> dataset row
    for bit in (False, True):
        subset, indices = np.arange(len(data)), list(range(len(data)))
        for level_bit in (bit, not bit):
            want = oracles.split_oracle(rows, labels, efforts, indices,
                                        level_bit, "popt")
            column, cut, support, _, hits = fft._search(
                stack, POPT, subset, np.array([len(subset)]))
            col = int(column[0, int(level_bit)])
            if want is None:
                assert col < 0
                break
            assert {"attribute": data.attributes[col // 2],
                    "op": ("<=", ">")[col % 2],
                    "cut": float(cut[0, int(level_bit)]),
                    "class": level_bit,
                    "support": int(support[0, int(level_bit)])} == want[0]
            indices = want[1]
            subset = subset[~hits[int(level_bit)]]
            assert sorted(order[subset].tolist()) == indices
            if not indices:
                break


def _assert_closed_areas_within_slack(data):
    stack, rows, n, (_, match, *_) = _root(data)
    defects, efforts = stack.labels.astype(float), stack.effort
    areas = fft._closed_areas(defects, efforts, match)
    assert areas is not None
    for bit in (False, True):
        # each candidate's ranking, as the exact path builds it
        later = (~match if bit else match).T
        order = np.argsort(later, axis=1, kind="stable")
        exact = metrics._curve_area(defects[order], efforts[order])
        # the prefilter needs each area within half its slack
        assert np.all(np.abs(areas[int(bit)] - exact)
                      <= fft._AREA_SLACK * (n[0] + 2) / 2)


@settings(max_examples=200, deadline=None)
@given(_popt_data())
def test_closed_form_areas_are_within_the_slack_of_curve_area(data):
    stack, rows, n, (*_, kept) = _root(data)
    assume(not np.isnan(fft._segment_bounds(stack, rows, n)[0][0])
           and kept.any())
    _assert_closed_areas_within_slack(data)


@pytest.mark.parametrize("seed, n_rows", [(3, 150), (7, 440), (11, 1320)])
def test_closed_form_areas_on_synthetic_releases(seed, n_rows):
    raw = synth.make_corpus(names=("ant",), seed=seed, versions=1,
                            rows=n_rows)["ant"][0]
    _assert_closed_areas_within_slack(binarize(raw, LabelRule.bug_counts()))


def test_popt_prefilter_ranks_few_candidates_exactly(monkeypatch):
    """On a synthetic release the slack is far below the gaps between
    candidates' scores, so the root's searches leave one candidate for the
    exact path, not every one."""
    raw = synth.make_corpus(names=("ant",), seed=7, versions=1, rows=300)
    train = binarize(raw["ant"][0], LabelRule.bug_counts())
    stack, rows, n, (_, match, _, _, kept) = _root(train)
    assert np.count_nonzero(kept) > 10
    monkeypatch.setattr(fft, "popt_values", None)    # nothing is ranked
    keys = fft._popt_keys(stack, rows, n, match, kept,
                          fft._segment_bounds(stack, rows, n))
    assert np.count_nonzero(np.isfinite(keys[0]), axis=1).tolist() == [1, 1]


@pytest.mark.parametrize("negatives, positives", [
    (1e-310, 1.0), (1e305, 1e305), (1.0, 1e-310), (1e-310, 5e-311)],
    ids=["subnormal", "near overflow", "subnormal positives",
         "all subnormal"])
def test_popt_prefilter_steps_aside_outside_its_error_bound(negatives,
                                                            positives):
    data = _tie_heavy_data(3, 40)
    data = Dataset(name=data.name, version=data.version,
                   attributes=data.attributes, values=data.values,
                   labels=data.labels,
                   effort=np.where(data.labels, positives, negatives))
    stack, rows, n, (_, match, _, _, kept) = _root(data)
    s_opt, s_worst = fft._segment_bounds(stack, rows, n)
    assert fft._closed_areas(stack.labels.astype(float), stack.effort,
                             match) is None
    keys = fft._popt_keys(stack, rows, n, match, kept, (s_opt, s_worst))
    assert np.array_equal(np.isfinite(keys[0, 1]), kept[0])


# --------------------------------------------------------- routing/predict

def _exit(tree, row):
    """(exit index, class, training support) of a one-row dataset."""
    exit_idx, classes = route_dataset(tree, row)
    i = int(exit_idx[0])
    support = tree.nodes[i].support if i < len(tree.nodes) else tree.leaf_support
    return i, bool(classes[0]), support


def test_route_first_match_wins_and_leaf_fallback(eight_rows):
    tree = build_tree(eight_rows, (False, True, True, True),
                      DIS2HEAVEN)
    # row 1 (x=2, y=40): y > 32.5 fires at level 0
    assert _exit(tree, eight_rows.subset([1])) == (0, False, 4)
    # row 0 (x=1, y=10): falls to level 1, x <= 4
    assert _exit(tree, eight_rows.subset([0])) == (1, True, 2)
    # a row nothing matches lands on the final leaf
    nowhere = one_row(eight_rows.attributes, {"x": 99.0, "y": 0.0, "z": 0.0})
    assert _exit(tree, nowhere) == (4, False, 0)


def test_route_treats_missing_as_no_match(eight_rows):
    tree = build_tree(eight_rows, (False, True, True, True),
                      DIS2HEAVEN)
    all_missing = one_row(eight_rows.attributes,
                          {"x": None, "y": float("nan"), "z": None})
    assert _exit(tree, all_missing)[:2] == (len(tree.nodes), tree.leaf_class)
    assert route_dataset(tree, all_missing)[1].tolist() == [tree.leaf_class]


@pytest.mark.parametrize("fn", [DIS2HEAVEN, POPT], ids=lambda f: f.kind)
def test_routing_matches_oracle_row_by_row(eight_rows, fn):
    rows = dataset_rows(eight_rows)
    labels = eight_rows.labels.tolist()
    efforts = eight_rows.effort.tolist()
    for policy in oracles.all_bit_vectors(3):
        tree = build_tree(eight_rows, policy, fn)
        oracle_tree = oracles.build_tree_oracle(rows, labels, efforts,
                                                policy, fn.kind)
        exit_idx, classes = route_dataset(tree, eight_rows)
        for i, row in enumerate(rows):
            want_idx, want_cls = oracles.route_oracle(oracle_tree, row)
            assert (exit_idx[i], classes[i]) == (want_idx, want_cls)
            assert _exit(tree, eight_rows.subset([i]))[:2] \
                == (want_idx, want_cls)
        assert (score_dataset(tree, eight_rows) >= 0.5).tolist() \
            == classes.tolist()


# ----------------------------------------------------------- rank_for_popt

def test_rank_for_popt_simple_order(six_rows):
    tree = build_tree(six_rows, (True,), DIS2HEAVEN)
    assert rank_for_popt(tree, six_rows).tolist() == [0, 1, 2, 3, 4, 5]


def test_rank_for_popt_bucket_precedence():
    tree = FFTree(policy=(True, False, True),
                  nodes=(Node(Range("x", "<=", 1.0), True, 1),
                         Node(Range("x", "<=", 2.0), False, 1),
                         Node(Range("x", "<=", 3.0), True, 1)),
                  leaf_class=False, leaf_support=1)
    ds = make_dataset(("x",), [[1], [2], [3], [4]],
                      labels=[True, False, True, False],
                      effort=[1, 1, 1, 1])
    # true exits by level (0 then 2), then false exits latest-first (3 then 1)
    assert rank_for_popt(tree, ds).tolist() == [0, 2, 3, 1]


def test_rank_for_popt_breaks_ties_by_effort():
    tree = FFTree(policy=(True,),
                  nodes=(Node(Range("x", "<=", 10.0), True, 3),),
                  leaf_class=False, leaf_support=1)
    ds = make_dataset(("x",), [[1], [2], [3], [20]],
                      labels=[True, True, False, False],
                      effort=[9, 4, 6, 5])
    assert rank_for_popt(tree, ds).tolist() == [1, 2, 0, 3]


def _oracle_order(tree, data):
    oracle_tree = {"nodes": tree_to_dict(tree)["nodes"],
                   "leaf_class": tree.leaf_class}
    routed = [oracles.route_oracle(oracle_tree, row)
              for row in dataset_rows(data)]
    return oracles.popt_order_oracle(routed, data.effort.tolist())


@pytest.mark.parametrize("seed", [3, 7, 11])
def test_rank_for_popt_matches_the_order_oracle(seed):
    data = _tie_heavy_data(seed, 40)
    unequal = Dataset(name=data.name, version=data.version,
                      attributes=data.attributes, values=data.values,
                      labels=data.labels,
                      effort=np.random.default_rng(seed).integers(1, 4, 40))
    trees = [FFTree(policy=(bit,), nodes=(), leaf_class=not bit,
                    leaf_support=40) for bit in (False, True)]
    for fn in (DIS2HEAVEN, POPT):
        for depth in (1, 3, 5):
            # ascending policy order: all-false exits first, all-true last
            trees += grow(data, depth, fn)[1]
            trees += grow(unequal, depth, fn)[1]
    assert any(t.nodes and all(n.exit_class for n in t.nodes) for t in trees)
    assert any(t.nodes and not any(n.exit_class for n in t.nodes)
               for t in trees)
    for tree in trees:
        for ds in (data, unequal):
            assert rank_for_popt(tree, ds).tolist() == _oracle_order(tree, ds)


@st.composite
def _tree_and_data(draw):
    """A small dataset with missing and infinite cells, and a tree on its
    attributes: one ``grow`` trains on it, or one ``tree_from_dict``
    loads, with from zero nodes to a full policy."""
    n = draw(st.integers(2, 10))
    cell = st.sampled_from([np.nan, -np.inf, np.inf, 0.0, 1.0, 2.0, 3.0])
    data = make_dataset(
        ("a", "b"), [[draw(cell), draw(cell)] for _ in range(n)],
        labels=draw(st.lists(st.booleans(), min_size=n, max_size=n)),
        effort=draw(st.lists(st.integers(1, 3), min_size=n, max_size=n)))
    depth = draw(st.integers(1, 4))
    bits = draw(st.lists(st.booleans(), min_size=depth, max_size=depth))
    if draw(st.booleans()):
        trees = grow(data, depth, draw(st.sampled_from([DIS2HEAVEN, POPT])))[1]
        return trees[draw(st.integers(0, len(trees) - 1))], data
    k = draw(st.integers(0, depth))
    nodes = [{"attribute": draw(st.sampled_from(["a", "b"])),
              "op": draw(st.sampled_from(["<=", ">"])),
              "cut": float(draw(st.integers(-1, 4))), "class": bit,
              "support": 0} for bit in bits[:k]]
    policy = "".join("1" if bit else "0" for bit in (*bits, not bits[-1]))
    payload = {"depth": depth, "policy": policy, "nodes": nodes,
               "final_leaf": {"class": not (bits[k - 1] if k else bits[0]),
                              "support": 0}}
    return tree_from_dict(payload), data


@settings(max_examples=300, deadline=None)
@given(_tree_and_data())
def test_scores_threshold_to_the_routed_class_and_rank_like_the_oracle(case):
    tree, data = case
    scores = score_dataset(tree, data)
    assert ((scores >= 0.5) == route_dataset(tree, data)[1]).all()
    assert ((0.0 <= scores) & (scores <= 1.0)).all()
    assert rank_for_popt(tree, data).tolist() == _oracle_order(tree, data)


def test_rank_for_popt_needs_effort(six_rows):
    tree = build_tree(six_rows, (True,), DIS2HEAVEN)
    no_effort = make_dataset(("a", "b"), [[1, 2], [3, 4]],
                             labels=[True, False])
    with pytest.raises(UnsupportedScoreError, match="effort"):
        rank_for_popt(tree, no_effort)


def test_tree_score_agrees_with_oracle_on_test_data(eight_rows, twelve_rows):
    tree = build_tree(eight_rows, (False, True, True, True),
                      DIS2HEAVEN)
    oracle_tree = {"nodes": [{"attribute": n.range.attribute,
                              "op": n.range.op, "cut": n.range.cut,
                              "class": n.exit_class, "support": n.support}
                             for n in tree.nodes],
                   "leaf_class": tree.leaf_class,
                   "leaf_support": tree.leaf_support}
    # score the eight-row tree on a different table sharing attribute names
    other = make_dataset(("x", "y", "z"),
                         [[2, 50, 1], [5, 10, 2], [9, 80, 3], [1, 20, None]],
                         labels=[False, True, False, True],
                         effort=[30, 10, 80, 20])
    for fn in (DIS2HEAVEN, POPT):
        want = oracles.tree_score_oracle(oracle_tree, dataset_rows(other),
                                         other.labels.tolist(),
                                         other.effort.tolist(), fn.kind)
        assert tree_score(tree, other, fn) == want


# --------------------------------------------------------------- rendering

def test_render_pinned_text(six_rows, eight_rows):
    simple = build_tree(six_rows, (True,), DIS2HEAVEN)
    assert render(simple) == "if a <= 3.5 then true\nelse false"
    deep = build_tree(eight_rows, (False, True, True, True),
                      DIS2HEAVEN)
    assert render(deep) == ("if y > 32.5 then false\n"
                            "else if x <= 4 then true\n"
                            "else if x <= 6 then true\n"
                            "else if x <= 7 then true\n"
                            "else false")


def test_render_depth_four_stays_within_five_lines(twelve_rows):
    _, trees = grow(twelve_rows, depth=4, fn=DIS2HEAVEN)
    for tree in trees:
        assert len(render(tree).splitlines()) <= 5


@pytest.mark.parametrize("node, leaf_class", [
    ({"cut": 1e999}, False),
    ({}, True),
    ({"op": "<"}, False),
], ids=["infinite cut", "agreeing leaf", "bad op"])
def test_text_and_dict_loaders_reject_the_same_trees(node, leaf_class):
    # JSON is the one model load path, so it alone must refuse the trees
    # no rendered text may show: an infinite cut, a final leaf that agrees
    # with the last exit, an op other than <= and >
    payload = {"depth": 1, "policy": "10",
               "nodes": [{"attribute": "a", "op": "<=", "cut": 1.0,
                          "class": True, "support": 0, **node}],
               "final_leaf": {"class": leaf_class, "support": 0}}
    with pytest.raises(DatasetError):
        tree_from_dict(payload)


# ------------------------------------------------------------- dict round trip

def test_tree_dict_round_trip_through_json(eight_rows):
    train = _trie_data(3, 40)
    blank = Dataset(name="blank", version="1", attributes=train.attributes,
                    values=np.full(train.values.shape, np.nan),
                    labels=train.labels, effort=train.effort)
    shapes = set()
    for data, depths in [(eight_rows, [4]), (train, range(1, 6)),
                         (blank, range(1, 6))]:
        for fn in (DIS2HEAVEN, POPT):
            for depth in depths:
                for tree in grow(data, depth, fn)[1]:
                    payload = json.loads(json.dumps(tree_to_dict(tree)))
                    assert tree_from_dict(payload) == tree
                    shapes.add("no nodes" if not tree.nodes else
                               "truncated" if tree.truncated else "full")
    assert shapes == {"no nodes", "truncated", "full"}


def test_tree_dict_shape(eight_rows):
    tree = build_tree(eight_rows, (False, True, True, True),
                      DIS2HEAVEN)
    payload = tree_to_dict(tree)
    assert payload["depth"] == 4
    assert payload["policy"] == "01110"
    assert payload["score"] == "dis2heaven"
    assert payload["truncated"] is False
    assert payload["final_leaf"] == {"class": False, "support": 0}
    assert payload["nodes"][0] == {"attribute": "y", "op": ">", "cut": 32.5,
                                   "class": False, "support": 4}


def test_tree_from_dict_validation(eight_rows):
    tree = build_tree(eight_rows, (True, True), DIS2HEAVEN)
    payload = tree_to_dict(tree)
    broken = dict(payload)
    del broken["nodes"]
    with pytest.raises(DatasetError, match="bad model payload"):
        tree_from_dict(broken)
    mismatched = dict(payload, policy="11010")
    with pytest.raises(DatasetError, match="does not match depth"):
        tree_from_dict(mismatched)
    # rendered, this leaf would read "else true" after "then true"
    agreeing = dict(payload, final_leaf={"class": True, "support": 0})
    with pytest.raises(DatasetError, match="oppose the last exit"):
        tree_from_dict(agreeing)
    # each field must have its JSON type: no rounding, no parsing of strings
    node, *rest = payload["nodes"]

    def with_node(**change):
        return dict(payload, nodes=[dict(node, **change), *rest])

    for bad, message in [
            (dict(payload, depth=2.9), "depth 2.9: expected a JSON integer"),
            (dict(payload, depth="2"), "depth '2': expected a JSON integer"),
            (with_node(support=-7.9), "support -7.9: expected a JSON integer"),
            (with_node(support="12"), "support '12': expected a JSON integer"),
            (with_node(support=-7), "supports must be >= 0"),
            (dict(payload, final_leaf={"class": False, "support": -1}),
             "supports must be >= 0"),
            (with_node(cut="3.5"), "cut '3.5': expected a JSON number"),
            (with_node(attribute=5), "attribute 5: expected a JSON string"),
            (dict(payload, score=7), "score 7: expected a JSON string"),
            (dict(payload, train_score="abc"),
             "train_score 'abc': expected a JSON number")]:
        with pytest.raises(DatasetError, match=message):
            tree_from_dict(bad)
    assert tree_from_dict(dict(payload, train_score=None, score=None)) \
        == FFTree(tree.policy, tree.nodes, tree.leaf_class, tree.leaf_support)


@pytest.mark.parametrize("score", ["auc", "", "d2h", "POPT"])
def test_tree_from_dict_rejects_an_unknown_score(eight_rows, score):
    # fit writes only null, "dis2heaven" or "popt"; the alias "d2h" names
    # a score on the command line, never in a model
    payload = tree_to_dict(build_tree(eight_rows, (True, True), POPT))
    assert tree_from_dict(payload).score_kind == "popt"
    with pytest.raises(DatasetError, match=f"model score {score!r} must be "
                       "null, 'dis2heaven' or 'popt'"):
        tree_from_dict(dict(payload, score=score))


@pytest.mark.parametrize("leaf", [{}, {"class": True}, {"support": 3},
                                  {"class": True, "support": "many"}, None,
                                  {"class": "false", "support": 3},
                                  {"class": 1, "support": 3}])
def test_tree_from_dict_rejects_bad_final_leaf(eight_rows, leaf):
    tree = build_tree(eight_rows, (True, True), DIS2HEAVEN)
    with pytest.raises(DatasetError, match="bad model payload"):
        tree_from_dict(dict(tree_to_dict(tree), final_leaf=leaf))
