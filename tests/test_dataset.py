"""Tests for CSV ingestion, label rules, merging and round-trips."""

import os
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from frugal.dataset import (Dataset, LabelRule, binarize, load_csv, merge,
                            save_csv)
from frugal.errors import DatasetError

from conftest import make_dataset


# ---------------------------------------------------------------- load_csv

def test_load_csv_basic_shape(toy_csv):
    ds = load_csv(toy_csv, label_column="bug")
    assert ds.attributes == ("wmc", "cbo", "loc")
    assert len(ds) == 4
    assert not ds.binary
    assert ds.labels.tolist() == [0.0, 2.0, 0.0, 1.0]
    assert ds.effort is None
    assert ds.name == str(toy_csv)
    assert ds.version == ""


def test_load_csv_missing_marker_becomes_nan(toy_csv):
    ds = load_csv(toy_csv, label_column="bug")
    col = ds.column("cbo")
    assert col.tolist()[:2] == [4.0, 9.0]
    assert np.isnan(col[2])
    assert col[3] == 7.0


def test_load_csv_excluded_columns_become_metadata(toy_csv):
    ds = load_csv(toy_csv, label_column="bug")
    # the header has two "name" columns; the second is deduplicated
    assert set(ds.metadata) == {"name", "version", "name.1"}
    assert ds.metadata["name"] == ["org.App", "org.Core", "org.Util", "org.Net"]
    assert ds.metadata["name.1"] == ["App", "Core", "Util", "Net"]
    assert ds.metadata["version"] == ["1.0"] * 4


def test_load_csv_effort_column_is_removed_from_attributes(toy_csv):
    ds = load_csv(toy_csv, label_column="bug", effort_column="loc")
    assert ds.attributes == ("wmc", "cbo")
    assert ds.effort.tolist() == [120.0, 340.0, 80.0, 210.0]


def test_load_csv_name_and_version_overrides(toy_csv):
    ds = load_csv(toy_csv, label_column="bug", name="proj", version="1.0")
    assert ds.name == "proj"
    assert ds.version == "1.0"


def test_load_csv_missing_file():
    with pytest.raises(DatasetError, match="cannot read"):
        load_csv("/nonexistent/xyz.csv", label_column="bug")


def test_load_csv_missing_label_column(toy_csv):
    with pytest.raises(DatasetError, match="no column named 'defects'"):
        load_csv(toy_csv, label_column="defects")
    with pytest.raises(DatasetError, match="no column named ''"):
        load_csv(toy_csv, label_column="")


def test_load_csv_missing_effort_column(toy_csv):
    with pytest.raises(DatasetError, match="no column named 'kloc'"):
        load_csv(toy_csv, label_column="bug", effort_column="kloc")


def test_load_csv_bad_cell_names_line_and_column(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("wmc,bug\n1,0\nabc,1\n")
    with pytest.raises(DatasetError, match=r"line 3.*'wmc'.*'abc'"):
        load_csv(path, label_column="bug")


def test_load_csv_ragged_row_names_line(tmp_path):
    path = tmp_path / "ragged.csv"
    path.write_text("wmc,cbo,bug\n1,2,0\n3,1\n")
    with pytest.raises(DatasetError, match="line 3 has 2 cells, header has 3"):
        load_csv(path, label_column="bug")


def test_load_csv_empty_file(tmp_path):
    path = tmp_path / "empty.csv"
    path.write_text("")
    with pytest.raises(DatasetError, match="empty file"):
        load_csv(path, label_column="bug")


def test_load_csv_header_only_gives_zero_rows(tmp_path):
    path = tmp_path / "header.csv"
    path.write_text("wmc,bug\n")
    ds = load_csv(path, label_column="bug")
    assert len(ds) == 0
    assert ds.attributes == ("wmc",)


def test_load_csv_blank_lines_are_skipped(tmp_path):
    path = tmp_path / "blank.csv"
    path.write_text("wmc,bug\n1,0\n\n2,1\n")
    ds = load_csv(path, label_column="bug")
    assert len(ds) == 2


def test_load_csv_duplicate_attribute_columns(tmp_path):
    path = tmp_path / "dup.csv"
    path.write_text("wmc,wmc,bug\n1,2,0\n")
    with pytest.raises(DatasetError, match=r"duplicate attribute columns.*wmc"):
        load_csv(path, label_column="bug")


@pytest.mark.parametrize("cell", ["0", "-3", "?"])
def test_load_csv_rejects_nonpositive_or_missing_effort(tmp_path, cell):
    path = tmp_path / "eff.csv"
    path.write_text(f"wmc,loc,bug\n1,{cell},0\n")
    with pytest.raises(DatasetError, match="line 2.*effort must be a positive"):
        load_csv(path, label_column="bug", effort_column="loc")


@pytest.mark.parametrize("text, line, column, cell", [
    ("wmc,loc,bug\n1,5,0\n2,5,1\ninf,5,0\n", 4, "wmc", "inf"),
    ("wmc,loc,bug\n1,5,0\n2,5,-inf\n", 3, "bug", "-inf"),
    ("wmc,loc,bug\n1,5,0\n2,1e999,1\n", 3, "loc", "inf"),
    ("wmc,loc,bug\n1,5,0\n2,5,inf\n-inf,5,0\n", 3, "bug", "inf"),
    ("wmc,cbo,loc,bug\nnan,5,5,0\n?,1e999,5,inf\n", 3, "cbo", "inf"),
    ("wmc,loc,bug\n\n1,5,0\n\n\n2,5,0\n3,inf,1\n", 7, "loc", "inf"),
], ids=["attribute", "label", "effort", "first line wins",
        "first column wins", "blank lines counted"])
def test_load_csv_rejects_infinite_cells(tmp_path, text, line, column, cell):
    path = tmp_path / "inf.csv"
    path.write_text(text)
    with pytest.raises(DatasetError, match=rf"inf\.csv: line {line}, "
                       rf"column '{column}': cell value {cell} is not finite"):
        load_csv(path, label_column="bug", effort_column="loc")


def test_load_csv_nan_cell_stays_missing(tmp_path):
    path = tmp_path / "nan.csv"
    path.write_text("wmc,cbo,bug\nnan,2,0\n3,NaN,1\n")
    ds = load_csv(path, label_column="bug")
    assert np.isnan(ds.values[0, 0]) and np.isnan(ds.values[1, 1])
    assert ds.values[0, 1] == 2.0 and ds.values[1, 0] == 3.0


def test_load_csv_custom_exclude(tmp_path):
    path = tmp_path / "cust.csv"
    path.write_text("id,wmc,bug\nr1,4,0\n")
    ds = load_csv(path, label_column="bug", exclude=("id",))
    assert ds.attributes == ("wmc",)
    assert ds.metadata["id"] == ["r1"]


# --------------------------------------------------------------- LabelRule

def test_label_rule_describe_forms():
    assert LabelRule.bug_counts().describe() == ">0"
    assert LabelRule.days("less-than", 30).describe() == "<30"
    assert LabelRule.days("greater-than", 365).describe() == ">365"


def test_label_rule_validation():
    with pytest.raises(DatasetError, match="unknown label rule kind"):
        LabelRule(kind="quantile")
    with pytest.raises(DatasetError, match="bad direction"):
        LabelRule(kind="days-threshold", threshold_days=30, direction="below")
    with pytest.raises(DatasetError, match="threshold_days"):
        LabelRule.days("less-than", 0)


# ---------------------------------------------------------------- binarize

def test_binarize_bug_counts(toy_csv):
    ds = binarize(load_csv(toy_csv, label_column="bug"), LabelRule.bug_counts())
    assert ds.binary
    assert ds.labels.tolist() == [False, True, False, True]


def test_binarize_days_thresholds_are_strict():
    raw = make_dataset(("a",), [[1], [2], [3]], labels=[400, 10, 30],
                       binary=False)
    lt = binarize(raw, LabelRule.days("less-than", 30))
    assert lt.labels.tolist() == [False, True, False]
    gt = binarize(raw, LabelRule.days("greater-than", 30))
    assert gt.labels.tolist() == [True, False, False]


def test_binarize_twice_is_rejected(toy_csv):
    ds = binarize(load_csv(toy_csv, label_column="bug"), LabelRule.bug_counts())
    with pytest.raises(DatasetError, match="already binary"):
        binarize(ds, LabelRule.bug_counts())


def test_binarize_rejects_missing_label():
    raw = make_dataset(("a",), [[1], [2]], labels=[1.0, np.nan], binary=False)
    with pytest.raises(DatasetError, match="row 2 has a missing label"):
        binarize(raw, LabelRule.bug_counts())


# ----------------------------------------------------------------- Dataset

def test_dataset_arrays_are_write_locked(six_rows):
    with pytest.raises(ValueError):
        six_rows.values[0, 0] = 99.0
    with pytest.raises(ValueError):
        six_rows.labels[0] = False
    with pytest.raises(ValueError):
        six_rows.effort[0] = 1.0


def test_dataset_shape_validation():
    with pytest.raises(DatasetError, match="labels"):
        Dataset(name="t", version="", attributes=("a",),
                values=np.zeros((2, 1)), labels=np.array([True]))
    with pytest.raises(DatasetError, match="attributes"):
        Dataset(name="t", version="", attributes=("a", "b"),
                values=np.zeros((2, 1)), labels=np.array([True, False]))


def test_dataset_rejects_nonpositive_effort():
    with pytest.raises(DatasetError, match="effort must be > 0"):
        make_dataset(("a",), [[1], [2]], labels=[True, False], effort=[5, 0])


def test_dataset_column_row_subset(six_rows):
    assert six_rows.column("a").tolist() == [1, 2, 3, 4, 5, 6]
    with pytest.raises(DatasetError, match="no attribute 'zzz'"):
        six_rows.column("zzz")
    assert six_rows.row(1) == {"a": 2.0, "b": 1.0}
    sub = six_rows.subset([5, 0])
    assert sub.column("a").tolist() == [6.0, 1.0]
    assert sub.labels.tolist() == [False, True]
    assert sub.effort.tolist() == [60.0, 10.0]
    assert len(sub) == 2


def test_subset_carries_metadata(toy_csv):
    ds = load_csv(toy_csv, label_column="bug")
    sub = ds.subset([3, 1])
    assert sub.metadata["name.1"] == ["Net", "Core"]


def test_binary_property(six_rows, toy_csv):
    assert six_rows.binary
    assert not load_csv(toy_csv, label_column="bug").binary


# ------------------------------------------------------------------- merge

def test_merge_concatenates_in_order(six_rows, toy_csv):
    a = make_dataset(("a",), [[1], [2]], labels=[True, False],
                     effort=[1, 2], name="p", version="1.0")
    b = make_dataset(("a",), [[3], [4], [5]], labels=[False, False, True],
                     effort=[3, 4, 5], name="p", version="1.1")
    m = merge([a, b])
    assert m.column("a").tolist() == [1, 2, 3, 4, 5]
    assert m.labels.tolist() == [True, False, False, False, True]
    assert m.effort.tolist() == [1, 2, 3, 4, 5]
    assert m.name == "p"
    assert m.version == "1.0+1.1"


def test_merge_distinct_names_joined():
    a = make_dataset(("a",), [[1]], labels=[True], name="left")
    b = make_dataset(("a",), [[2]], labels=[False], name="right")
    assert merge([a, b]).name == "left+right"


def test_merge_single_dataset_is_identity(six_rows):
    assert merge([six_rows]) is six_rows


def test_merge_rejects_mismatched_attributes():
    a = make_dataset(("a",), [[1]], labels=[True])
    b = make_dataset(("b",), [[1]], labels=[True])
    with pytest.raises(DatasetError, match="attribute mismatch"):
        merge([a, b])


def test_merge_rejects_raw_with_binary():
    a = make_dataset(("a",), [[1]], labels=[True])
    b = make_dataset(("a",), [[1]], labels=[3], binary=False)
    with pytest.raises(DatasetError, match="raw and binarized"):
        merge([a, b])


def test_merge_rejects_partial_effort():
    a = make_dataset(("a",), [[1]], labels=[True], effort=[5])
    b = make_dataset(("a",), [[1]], labels=[False])
    with pytest.raises(DatasetError, match="with and without effort"):
        merge([a, b])


def test_merge_empty_list():
    with pytest.raises(DatasetError, match="at least one"):
        merge([])


def test_merge_keeps_shared_metadata(toy_csv):
    a = load_csv(toy_csv, label_column="bug", name="p", version="1.0")
    b = load_csv(toy_csv, label_column="bug", name="p", version="1.1")
    m = merge([a, b])
    assert m.metadata["name"] == a.metadata["name"] * 2


# ---------------------------------------------------------------- save_csv

def test_save_load_round_trip_with_missing_cells(tmp_path, toy_csv):
    ds = load_csv(toy_csv, label_column="bug")
    out = tmp_path / "again.csv"
    save_csv(ds, out, label_column="bug")
    back = load_csv(out, label_column="bug", exclude=tuple(ds.metadata))
    assert back.attributes == ds.attributes
    assert np.array_equal(back.values, ds.values, equal_nan=True)
    assert np.array_equal(back.labels, ds.labels)
    assert back.metadata == ds.metadata


def test_save_csv_writes_missing_as_question_mark(tmp_path, toy_csv):
    ds = load_csv(toy_csv, label_column="bug")
    out = tmp_path / "q.csv"
    save_csv(ds, out, label_column="bug")
    assert ",?," in out.read_text()


def test_save_csv_binary_labels_round_trip(tmp_path, toy_csv):
    ds = binarize(load_csv(toy_csv, label_column="bug"), LabelRule.bug_counts())
    out = tmp_path / "bin.csv"
    save_csv(ds, out, label_column="bug")
    back = binarize(load_csv(out, label_column="bug",
                             exclude=tuple(ds.metadata)),
                    LabelRule.bug_counts())
    assert np.array_equal(back.labels, ds.labels)


def test_save_csv_effort_column_round_trip(tmp_path, six_rows):
    out = tmp_path / "eff.csv"
    save_csv(six_rows, out, label_column="bug", effort_column="loc")
    back = load_csv(out, label_column="bug", effort_column="loc")
    assert back.attributes == six_rows.attributes
    assert np.array_equal(back.effort, six_rows.effort)


def test_save_csv_requires_effort_vector(tmp_path):
    ds = make_dataset(("a",), [[1]], labels=[True])
    with pytest.raises(DatasetError, match="no effort vector"):
        save_csv(ds, tmp_path / "x.csv", effort_column="loc")


@st.composite
def _tables(draw):
    n_attr = draw(st.integers(1, 3))
    n_rows = draw(st.integers(1, 5))
    cell = st.one_of(st.none(), st.floats(allow_nan=False,
                                          allow_infinity=False,
                                          min_value=-1e6, max_value=1e6))
    rows = draw(st.lists(st.lists(cell, min_size=n_attr, max_size=n_attr),
                         min_size=n_rows, max_size=n_rows))
    labels = draw(st.lists(st.integers(0, 5), min_size=n_rows,
                           max_size=n_rows))
    return [f"m{j}" for j in range(n_attr)], rows, labels


@settings(max_examples=40, deadline=None)
@given(_tables())
def test_save_load_round_trip_property(table):
    attrs, rows, labels = table
    ds = make_dataset(attrs, rows, labels, binary=False)
    with tempfile.TemporaryDirectory() as d:
        path = os.path.join(d, "t.csv")
        save_csv(ds, path, label_column="bug")
        back = load_csv(path, label_column="bug")
    assert back.attributes == ds.attributes
    assert np.array_equal(back.values, ds.values, equal_nan=True)
    assert np.array_equal(back.labels, ds.labels)
