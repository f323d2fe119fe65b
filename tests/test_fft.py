"""Tests for tree growing, routing, ranking and the text/JSON forms."""

import json

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from frugal import fft, metrics, synth
from frugal.dataset import Dataset, LabelRule, binarize
from frugal.errors import DatasetError, TrainingError, UnsupportedScoreError
from frugal.fft import (ExitPolicy, FFTree, Node, Range, all_policies,
                        build_tree, discretize, grow, parse, predict_dataset,
                        rank_for_popt, render, route_dataset, score_range,
                        tree_from_dict, tree_score, tree_to_dict)
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


# -------------------------------------------------------------- ExitPolicy

def test_policy_string_appends_opposite_digit():
    assert ExitPolicy((False, False, True, False)).string == "00101"
    assert ExitPolicy((True,)).string == "10"
    assert ExitPolicy((False,)).string == "01"
    assert ExitPolicy((True, True, True, True)).string == "11110"


def test_policy_needs_a_level():
    with pytest.raises(ValueError):
        ExitPolicy(())


def test_all_policies_count_and_order():
    policies = all_policies(4)
    assert len(policies) == 16
    strings = [p.string for p in policies]
    assert strings[0] == "00001"
    assert strings[-1] == "11110"
    assert strings == sorted(strings)
    assert strings == [oracles.policy_string_of(bits)
                       for bits in oracles.all_bit_vectors(4)]
    with pytest.raises(ValueError):
        all_policies(0)


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


# -------------------------------------------------------------- build_tree

def test_build_tree_level_trace(eight_rows):
    """Node-by-node agreement with the exhaustive oracle on one policy."""
    tree = build_tree(eight_rows, ExitPolicy((False, True, True, True)),
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
    for policy in all_policies(3):
        tree = build_tree(eight_rows, policy, fn)
        want = oracles.build_tree_oracle(rows, labels, efforts,
                                         policy.bits, fn.kind)
        got_nodes = [{"attribute": n.range.attribute, "op": n.range.op,
                      "cut": n.range.cut, "class": n.exit_class,
                      "support": n.support} for n in tree.nodes]
        assert got_nodes == want["nodes"], policy.string
        assert tree.leaf_class == want["leaf_class"]
        assert tree.leaf_support == want["leaf_support"]
        assert tree.train_score == oracles.tree_score_oracle(
            want, rows, labels, efforts, fn.kind)


def test_build_tree_supports_partition_rows(twelve_rows):
    for policy in all_policies(4):
        tree = build_tree(twelve_rows, policy, DIS2HEAVEN)
        consumed = sum(n.support for n in tree.nodes) + tree.leaf_support
        assert consumed == len(twelve_rows)


def test_build_tree_truncates_when_rows_run_out():
    ds = make_dataset(("c",), [[5], [5], [5], [5]],
                      labels=[True, True, False, False])
    tree = build_tree(ds, ExitPolicy((True, False, True, False)), DIS2HEAVEN)
    assert len(tree.nodes) == 1          # the constant cut consumes all rows
    assert tree.truncated
    assert tree.leaf_support == 0
    assert tree.leaf_class is False      # opposite of the only exit


def test_build_tree_truncates_when_nothing_scoreable():
    ds = make_dataset(("m",), [[None], [None], [None]],
                      labels=[True, False, True])
    tree = build_tree(ds, ExitPolicy((True, True)), DIS2HEAVEN)
    assert tree.nodes == ()
    assert tree.truncated
    assert tree.leaf_class is False      # opposite of the first policy digit
    assert tree.leaf_support == 3


def test_single_class_data_yields_full_recall():
    ds = make_dataset(("c", "d"), [[7, 1], [7, 2], [7, 3], [7, 4]],
                      labels=[True, True, True, True])
    best, _ = grow(ds, depth=4, fn=DIS2HEAVEN)
    preds = predict_dataset(best, ds)
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
                                         tree.policy.bits, fn.kind)
        assert tree.train_score == oracles.tree_score_oracle(
            want, rows, [False] * 4, efforts, fn.kind)
        if fn is POPT:
            assert tree.train_score == 0.5


def test_grow_returns_all_policies_in_order(twelve_rows):
    best, trees = grow(twelve_rows, depth=4, fn=DIS2HEAVEN)
    assert len(trees) == 16
    assert [t.policy_string for t in trees] == [p.string
                                                for p in all_policies(4)]
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
                   values=values, labels=raw.labels >= 3, effort=raw.effort,
                   metadata={})


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
    rows = dataset_rows(train)
    labels = train.labels.tolist()
    efforts = train.effort.tolist()
    assert np.isnan(train.values).any() and 0 < sum(labels) < n_rows
    saw_no_positives = False
    for depth in range(1, 6):
        _, trees = grow(train, depth, fn)
        assert trees == [build_tree(train, p, fn) for p in all_policies(depth)]
        for tree in trees:
            want = oracles.build_tree_oracle(rows, labels, efforts,
                                             tree.policy.bits, fn.kind)
            got_nodes = [{"attribute": n.range.attribute, "op": n.range.op,
                          "cut": n.range.cut, "class": n.exit_class,
                          "support": n.support} for n in tree.nodes]
            assert got_nodes == want["nodes"], tree.policy_string
            assert tree.leaf_class == want["leaf_class"]
            assert tree.leaf_support == want["leaf_support"]
            assert tree.train_score == oracles.tree_score_oracle(
                want, rows, labels, efforts, fn.kind)
            saw_no_positives |= _searched_subset_without_positives(tree, train)
    assert saw_no_positives


@pytest.mark.parametrize("fn", [DIS2HEAVEN, POPT], ids=lambda f: f.kind)
def test_grow_searches_each_prefix_once(fn, monkeypatch):
    counts = {"blocks": 0, "searches": 0, "bounds": 0}

    def counted(name, func):
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return func(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(fft, "_candidates", counted("blocks", fft._candidates))
    monkeypatch.setattr(fft._Subset, "_search",
                        counted("searches", fft._Subset._search))
    monkeypatch.setattr(fft, "popt_bounds",
                        counted("bounds", metrics.popt_bounds))
    raw = synth.make_corpus(names=("ant",), seed=7, versions=1, rows=300)
    _, trees = grow(binarize(raw["ant"][0], LabelRule.bug_counts()), depth=4,
                    fn=fn)
    assert not any(t.truncated for t in trees)
    assert counts["blocks"] == 15
    assert counts["searches"] == 30
    assert counts["bounds"] == (15 if fn is POPT else 0)


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


# --------------------------------------------------------- routing/predict

def _exit(tree, row):
    """(exit index, class, training support) of a one-row dataset."""
    exit_idx, classes = route_dataset(tree, row)
    i = int(exit_idx[0])
    support = tree.nodes[i].support if i < len(tree.nodes) else tree.leaf_support
    return i, bool(classes[0]), support


def test_route_first_match_wins_and_leaf_fallback(eight_rows):
    tree = build_tree(eight_rows, ExitPolicy((False, True, True, True)),
                      DIS2HEAVEN)
    # row 1 (x=2, y=40): y > 32.5 fires at level 0
    assert _exit(tree, eight_rows.subset([1])) == (0, False, 4)
    # row 0 (x=1, y=10): falls to level 1, x <= 4
    assert _exit(tree, eight_rows.subset([0])) == (1, True, 2)
    # a row nothing matches lands on the final leaf
    nowhere = one_row(eight_rows.attributes, {"x": 99.0, "y": 0.0, "z": 0.0})
    assert _exit(tree, nowhere) == (4, False, 0)


def test_route_treats_missing_as_no_match(eight_rows):
    tree = build_tree(eight_rows, ExitPolicy((False, True, True, True)),
                      DIS2HEAVEN)
    all_missing = one_row(eight_rows.attributes,
                          {"x": None, "y": float("nan"), "z": None})
    assert _exit(tree, all_missing)[:2] == (len(tree.nodes), tree.leaf_class)
    assert predict_dataset(tree, all_missing).tolist() == [tree.leaf_class]


@pytest.mark.parametrize("fn", [DIS2HEAVEN, POPT], ids=lambda f: f.kind)
def test_routing_matches_oracle_row_by_row(eight_rows, fn):
    rows = dataset_rows(eight_rows)
    labels = eight_rows.labels.tolist()
    efforts = eight_rows.effort.tolist()
    for policy in all_policies(3):
        tree = build_tree(eight_rows, policy, fn)
        oracle_tree = oracles.build_tree_oracle(rows, labels, efforts,
                                                policy.bits, fn.kind)
        exit_idx, classes = route_dataset(tree, eight_rows)
        for i, row in enumerate(rows):
            want_idx, want_cls = oracles.route_oracle(oracle_tree, row)
            assert (exit_idx[i], classes[i]) == (want_idx, want_cls)
            assert _exit(tree, eight_rows.subset([i]))[:2] \
                == (want_idx, want_cls)
        assert predict_dataset(tree, eight_rows).tolist() == classes.tolist()


# ----------------------------------------------------------- rank_for_popt

def test_rank_for_popt_simple_order(six_rows):
    tree = build_tree(six_rows, ExitPolicy((True,)), DIS2HEAVEN)
    assert rank_for_popt(tree, six_rows).tolist() == [0, 1, 2, 3, 4, 5]


def test_rank_for_popt_bucket_precedence():
    tree = FFTree(policy=ExitPolicy((True, False, True)),
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
    tree = FFTree(policy=ExitPolicy((True,)),
                  nodes=(Node(Range("x", "<=", 10.0), True, 3),),
                  leaf_class=False, leaf_support=1)
    ds = make_dataset(("x",), [[1], [2], [3], [20]],
                      labels=[True, True, False, False],
                      effort=[9, 4, 6, 5])
    assert rank_for_popt(tree, ds).tolist() == [1, 2, 0, 3]


def test_rank_for_popt_needs_effort(six_rows):
    tree = build_tree(six_rows, ExitPolicy((True,)), DIS2HEAVEN)
    no_effort = make_dataset(("a", "b"), [[1, 2], [3, 4]],
                             labels=[True, False])
    with pytest.raises(UnsupportedScoreError, match="effort"):
        rank_for_popt(tree, no_effort)


def test_tree_score_agrees_with_oracle_on_test_data(eight_rows, twelve_rows):
    tree = build_tree(eight_rows, ExitPolicy((False, True, True, True)),
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
    simple = build_tree(six_rows, ExitPolicy((True,)), DIS2HEAVEN)
    assert render(simple) == "if a <= 3.5 then true\nelse false"
    deep = build_tree(eight_rows, ExitPolicy((False, True, True, True)),
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


def test_parse_render_round_trip(twelve_rows):
    _, trees = grow(twelve_rows, depth=4, fn=DIS2HEAVEN)
    for tree in trees:
        text = render(tree)
        back = parse(text)
        assert render(back) == text
        assert [(n.range, n.exit_class) for n in back.nodes] \
            == [(n.range, n.exit_class) for n in tree.nodes]
        assert back.leaf_class == tree.leaf_class


def test_parse_ignores_comments_and_blank_lines():
    tree = parse("# header note\n\nif a <= 1 then true  # inline\n\nelse false\n")
    assert len(tree.nodes) == 1
    assert tree.nodes[0].range == Range("a", "<=", 1.0)
    assert tree.leaf_class is False


def test_parse_error_cases():
    with pytest.raises(DatasetError, match="line 1"):
        parse("banana\nelse true")
    with pytest.raises(DatasetError, match="line 1: expected if"):
        parse("else if a <= 1 then true\nelse false")
    with pytest.raises(DatasetError, match="line 2: expected else if"):
        parse("if a <= 1 then true\nif b > 2 then false\nelse true")
    with pytest.raises(DatasetError, match="after final else"):
        parse("if a <= 1 then true\nelse false\nif b > 2 then true")
    with pytest.raises(DatasetError, match="no final else"):
        parse("if a <= 1 then true")
    with pytest.raises(DatasetError, match="no decision lines"):
        parse("else true")
    with pytest.raises(DatasetError, match="bad number"):
        parse("if a <= 1.2.3 then true\nelse false")
    with pytest.raises(DatasetError, match="line 1: bad number '1e999'.*finite"):
        parse("if a <= 1e999 then true\nelse false")
    with pytest.raises(DatasetError, match="oppose"):
        parse("if a <= 1 then true\nelse true")


@pytest.mark.parametrize("text, node, leaf_class", [
    ("if a <= 1e999 then true\nelse false", {"cut": 1e999}, False),
    ("if a <= 1 then true\nelse true", {}, True),
    ("if a < 1 then true\nelse false", {"op": "<"}, False),
], ids=["infinite cut", "agreeing leaf", "bad op"])
def test_text_and_dict_loaders_reject_the_same_trees(text, node, leaf_class):
    payload = {"depth": 1, "policy": "10",
               "nodes": [{"attribute": "a", "op": "<=", "cut": 1.0,
                          "class": True, "support": 0, **node}],
               "final_leaf": {"class": leaf_class, "support": 0}}
    with pytest.raises(DatasetError):
        parse(text)
    with pytest.raises(DatasetError):
        tree_from_dict(payload)


# ------------------------------------------------------------- dict round trip

def test_tree_dict_round_trip_through_json(eight_rows):
    train = _trie_data(3, 40)
    blank = Dataset(name="blank", version="1", attributes=train.attributes,
                    values=np.full(train.values.shape, np.nan),
                    labels=train.labels, effort=train.effort, metadata={})
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
    tree = build_tree(eight_rows, ExitPolicy((False, True, True, True)),
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
    tree = build_tree(eight_rows, ExitPolicy((True, True)), DIS2HEAVEN)
    payload = tree_to_dict(tree)
    broken = dict(payload)
    del broken["nodes"]
    with pytest.raises(DatasetError, match="bad model payload"):
        tree_from_dict(broken)
    mismatched = dict(payload, policy="11010")
    with pytest.raises(DatasetError, match="does not match depth"):
        tree_from_dict(mismatched)
    # rendered, this leaf reads "else true" after "then true": parse
    # rejects that text, so the dict form must reject it too
    agreeing = dict(payload, final_leaf={"class": True, "support": 0})
    with pytest.raises(DatasetError, match="oppose the last exit"):
        tree_from_dict(agreeing)


@pytest.mark.parametrize("leaf", [{}, {"class": True}, {"support": 3},
                                  {"class": True, "support": "many"}, None,
                                  {"class": "false", "support": 3},
                                  {"class": 1, "support": 3}])
def test_tree_from_dict_rejects_bad_final_leaf(eight_rows, leaf):
    tree = build_tree(eight_rows, ExitPolicy((True, True)), DIS2HEAVEN)
    with pytest.raises(DatasetError, match="bad model payload"):
        tree_from_dict(dict(tree_to_dict(tree), final_leaf=leaf))
