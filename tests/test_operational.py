"""Tests for version-to-version attribute drift and subset projection."""

import math

import numpy as np
import pytest

from frugal.errors import DatasetError
from frugal.operational import change_frequency, project, top_changed

import oracles
from conftest import make_dataset


def _version(values_by_attr, n=None):
    attrs = tuple(values_by_attr)
    n = n if n is not None else len(next(iter(values_by_attr.values())))
    rows = [[values_by_attr[a][i] for a in attrs] for i in range(n)]
    return make_dataset(attrs, rows, labels=[i % 2 == 0 for i in range(n)])


def _percents(stats):
    return {c.attribute: c.percent for c in stats.changes}


# --------------------------------------------------------- change_frequency

def test_identical_versions_never_change():
    v = _version({"a": [1, 2, 3, 4], "b": [9, 9, 8, 8]})
    stats = change_frequency([[v, v, v]])
    assert stats.total == 2
    assert _percents(stats) == {"a": 0.0, "b": 0.0}


def test_fully_shifted_attribute_changes_every_pair():
    v1 = _version({"a": [1, 2, 3, 4], "b": [5, 5, 6, 6]})
    v2 = _version({"a": [101, 102, 103, 104], "b": [5, 6, 5, 6]})
    stats = change_frequency([[v1, v2, v1]])
    assert stats.total == 2
    assert _percents(stats) == {"a": 100.0, "b": 0.0}


def test_change_threshold_is_inclusive():
    # this pair sits at |a12 - 0.5| = 1/16 = 0.0625, just past the 0.06 bar
    v1 = _version({"a": [1, 2, 3, 4]})
    v2 = _version({"a": [0.5, 2.5, 3.5, 4.5]})
    assert abs(oracles.a12_pairwise([1, 2, 3, 4],
                                    [0.5, 2.5, 3.5, 4.5]) - 0.5) == 0.0625
    assert _percents(change_frequency([[v1, v2]])) == {"a": 100.0}
    assert _percents(change_frequency([[v1, v2]], threshold=0.0625)) \
        == {"a": 100.0}
    assert _percents(change_frequency([[v1, v2]], threshold=0.0626)) \
        == {"a": 0.0}


def test_changes_pool_across_sequences():
    stay = _version({"a": [1, 2, 3, 4]})
    move = _version({"a": [51, 52, 53, 54]})
    stats = change_frequency([[stay, stay], [stay, move], [move, stay]])
    assert stats.total == 3
    assert _percents(stats)["a"] == pytest.approx(200.0 / 3.0)


def test_change_counts_are_order_insensitive_between_sequences():
    a = _version({"a": [1, 2, 3, 4]})
    b = _version({"a": [9, 9, 9, 9]})
    one = change_frequency([[a, b], [a, a]])
    two = change_frequency([[a, a], [a, b]])
    assert one == two


def test_missing_side_cannot_register_change():
    full = _version({"a": [1, 2, 3, 4]})
    blank = make_dataset(("a",), [[None]] * 4,
                         labels=[True, False, True, False])
    stats = change_frequency([[full, blank, full]])
    assert stats.total == 2
    assert _percents(stats)["a"] == 0.0


def test_change_frequency_validates_sequences():
    v = _version({"a": [1, 2]})
    with pytest.raises(DatasetError, match=">= 2 versions"):
        change_frequency([[v]])
    other = _version({"b": [1, 2]})
    with pytest.raises(DatasetError, match="attribute mismatch"):
        change_frequency([[v, other]])


def test_changes_are_reported_name_sorted():
    v1 = _version({"zz": [1, 2, 3], "aa": [4, 5, 6], "mm": [7, 8, 9]})
    stats = change_frequency([[v1, v1]])
    assert [c.attribute for c in stats.changes] == ["aa", "mm", "zz"]


def test_monotone_rescaling_preserves_change_counts():
    v1 = _version({"a": [1, 2, 3, 4], "b": [4, 3, 2, 1]})
    v2 = _version({"a": [11, 12, 13, 14], "b": [4, 3, 1, 2]})
    base = change_frequency([[v1, v2]])
    scaled = change_frequency([[
        _version({"a": [math.exp(x) for x in (1, 2, 3, 4)],
                  "b": [40, 30, 20, 10]}),
        _version({"a": [math.exp(x) for x in (11, 12, 13, 14)],
                  "b": [40, 30, 10, 20]}),
    ]])
    assert [(c.attribute, c.changed) for c in base.changes] \
        == [(c.attribute, c.changed) for c in scaled.changes]


# -------------------------------------------------------------- top_changed

def test_top_changed_keeps_a_quarter_rounded_up():
    n = 20
    attrs = {f"m{i:02d}": [float(i)] * 4 for i in range(n)}
    v1 = _version(attrs, n=4)
    v2 = _version(attrs, n=4)
    picked = top_changed(v1, v2, fraction=0.25)
    assert len(picked) == 5              # ceil(0.25 * 20)
    assert len(top_changed(v1, v2, fraction=0.26)) == math.ceil(0.26 * n)
    assert len(top_changed(v1, v2, fraction=1.0)) == n


def test_top_changed_full_fraction_is_identity_as_a_set(corpus):
    old, new = corpus["ant"][0], corpus["ant"][1]
    assert set(top_changed(old, new, fraction=1.0)) == set(old.attributes)


def test_top_changed_ranks_the_moved_attribute_first():
    v1 = _version({"calm": [5, 6, 5, 6], "wild": [1, 2, 3, 4],
                   "noise": [7, 7, 8, 8], "flat": [0, 0, 0, 0]})
    v2 = _version({"calm": [5, 6, 6, 5], "wild": [41, 42, 43, 44],
                   "noise": [8, 8, 7, 7], "flat": [0, 0, 0, 0]})
    picked = top_changed(v1, v2, fraction=0.25)
    assert picked == ("wild",)
    ranked = top_changed(v1, v2, fraction=1.0)
    assert ranked[0] == "wild"
    # magnitudes are |A12 - 0.5|; verify the full ranking via the oracle
    def magnitude(attr):
        return abs(oracles.a12_pairwise(
            [v1.column(attr)[i] for i in range(4)],
            [v2.column(attr)[i] for i in range(4)]) - 0.5)
    mags = [magnitude(a) for a in ranked]
    assert mags == sorted(mags, reverse=True)


def test_top_changed_ties_break_on_name():
    v1 = _version({"b": [1, 1, 1, 1], "a": [2, 2, 2, 2], "c": [3, 3, 3, 3]})
    assert top_changed(v1, v1, fraction=1.0) == ("a", "b", "c")


def test_top_changed_validation():
    v1 = _version({"a": [1, 2]})
    v2 = _version({"b": [1, 2]})
    with pytest.raises(DatasetError, match="attribute mismatch"):
        top_changed(v1, v2)
    with pytest.raises(DatasetError, match="fraction"):
        top_changed(v1, v1, fraction=0.0)
    with pytest.raises(DatasetError, match="fraction"):
        top_changed(v1, v1, fraction=1.2)


# ------------------------------------------------------------------ project

def test_project_selects_and_orders_columns(six_rows):
    slim = project(six_rows, ("b", "a"))
    assert slim.attributes == ("b", "a")
    assert slim.column("b").tolist() == six_rows.column("b").tolist()
    assert slim.column("a").tolist() == six_rows.column("a").tolist()
    assert np.array_equal(slim.labels, six_rows.labels)
    assert np.array_equal(slim.effort, six_rows.effort)
    assert len(slim) == len(six_rows)


def test_project_identity(six_rows):
    same = project(six_rows, six_rows.attributes)
    assert same.attributes == six_rows.attributes
    assert np.array_equal(same.values, six_rows.values)


def test_project_unknown_attribute(six_rows):
    with pytest.raises(DatasetError, match="unknown attribute 'q'"):
        project(six_rows, ("a", "q"))
