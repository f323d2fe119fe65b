"""Tests for CSV ingestion, label rules, merging and round-trips."""

import hashlib
import os
import re
import tempfile
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from frugal import dataset, synth
from frugal.baselines import lr_train
from frugal.dataset import (Dataset, LabelRule, binarize, load_csv, merge,
                            save_csv)
from frugal.errors import DatasetError
from frugal.operational import project

from conftest import make_dataset, spliced
from oracles import load_csv_oracle, save_csv_oracle


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
    # excluded columns are skipped, not kept: the header has two "name"
    # columns, both excluded by default, and their cells are not numbers
    ds = load_csv(toy_csv, label_column="bug")
    assert ds.attributes == ("wmc", "cbo", "loc")
    assert ds.values.shape == (4, 3)
    assert ds.column("wmc").tolist() == [5.0, 12.0, 3.0, 9.0]
    assert not hasattr(ds, "metadata")


def test_load_csv_custom_exclude(tmp_path):
    # a repeated excluded header with non-numeric cells is skipped too
    path = tmp_path / "cust.csv"
    path.write_text("id,wmc,id,bug\nr1,4,x y,0\n? ,5,,1\n")
    ds = load_csv(path, label_column="bug", exclude=("id",))
    assert ds.attributes == ("wmc",)
    assert ds.values.tolist() == [[4.0], [5.0]]
    assert ds.labels.tolist() == [0.0, 1.0]
    with pytest.raises(DatasetError, match="duplicate attribute columns"):
        load_csv(path, label_column="bug", exclude=())


def test_load_csv_effort_column_is_removed_from_attributes(toy_csv):
    ds = load_csv(toy_csv, label_column="bug", effort_column="loc")
    assert ds.attributes == ("wmc", "cbo")
    assert ds.effort.tolist() == [120.0, 340.0, 80.0, 210.0]
    # the three arrays are detached from the parse table and each other
    arrays = (ds.values, ds.labels, ds.effort)
    assert all(a.base is None for a in arrays)
    assert ds.values.flags.c_contiguous


@pytest.mark.parametrize("label", ["loc", "bug"])
def test_load_csv_rejects_one_column_as_label_and_effort(tmp_path, label):
    path = tmp_path / "both.csv"
    path.write_text("wmc,loc,bug\n1,5\nx,y,z\n")     # rows are never read
    with pytest.raises(DatasetError) as err:
        load_csv(path, label_column=label, effort_column=label)
    assert str(err.value) == (f"{path}: column {label!r} cannot be both the "
                              "label and the effort")


def test_load_csv_name_override(toy_csv):
    ds = load_csv(toy_csv, label_column="bug", name="proj")
    assert ds.name == "proj"


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


@pytest.mark.parametrize("text, effort, column", [
    ("a,bug,bug\n1,0,0\n", None, "bug"),
    ("bug,a,bug\n0,1,0\n", None, "bug"),
    ("a,loc,bug,loc\n1,5,0,5\n", "loc", "loc"),
], ids=["label", "label first", "effort"])
def test_load_csv_rejects_a_repeated_label_or_effort_column(tmp_path, text,
                                                            effort, column):
    path = tmp_path / "rep.csv"
    path.write_text(text)
    with pytest.raises(DatasetError, match=rf"2 columns are named '{column}'"):
        load_csv(path, label_column="bug", effort_column=effort)


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


def _load_both(path, effort_column):
    """What load_csv and the cell-by-cell oracle give: a Dataset or the
    message of the DatasetError raised."""
    out = []
    for load in (load_csv, load_csv_oracle):
        try:
            out.append(load(path, label_column="bug",
                            effort_column=effort_column))
        except DatasetError as exc:
            out.append(str(exc))
    return out


def _assert_same_load(new, old):
    if isinstance(old, str):
        assert new == old
        return
    assert not isinstance(new, str), new
    assert new.attributes == old.attributes
    assert new.values.tobytes() == old.values.tobytes()
    assert new.values.shape == old.values.shape
    assert new.labels.tobytes() == old.labels.tobytes()
    assert (new.effort is None) == (old.effort is None)
    if old.effort is not None:
        assert new.effort.tobytes() == old.effort.tobytes()


# quoted cells may span lines, so a row can start a line past its count
_EFFORTS = [b"7", b"2.5e-3", b"1E5", b" 3 ", b"1_0", b"+.5", b'" 4 "',
            b'"5\n"', b'"\r\n6"']
_NUMBERS = _EFFORTS + [b"-1", b"0", b"nan", b"NaN", b"-nan"]
_MISSING_CELLS = [b"?", b" ? ", b"", b"  ", b"\t", b'" \n "']
_INFINITE = [b"inf", b"-Infinity", b"1e999"]
_BAD_CELLS = [b"x", b"1.2.3", b"1__0", b'"1,5"', b'"a,b"', b"\xff"]


@st.composite
def _csv_files(draw):
    """CSV bytes with a label column ``bug`` and maybe an effort column
    ``loc``, attribute and (maybe repeated) metadata columns in any order,
    and blank lines.  A third of the files are clean and load.  In the
    others any cell may be infinite and any effort not positive; in half
    of those, any cell may also be no number and any row ragged."""
    effort = draw(st.sampled_from([None, "loc"]))
    attrs = draw(st.lists(st.sampled_from(["wmc", "cbo", "rfc"]), unique=True,
                          max_size=3))
    meta = draw(st.lists(st.sampled_from(["name", "version"]), max_size=3))
    header = draw(st.permutations(attrs + meta + ["bug"]
                                  + ([effort] if effort else [])))
    mode = draw(st.sampled_from(["clean", "values", "any"]))

    def cell(column):
        pool = _EFFORTS if column == effort else _NUMBERS + _MISSING_CELLS
        if mode != "clean":
            pool = (3 * pool + _NUMBERS + _MISSING_CELLS + _INFINITE
                    + _BAD_CELLS * (mode == "any"))
        return st.sampled_from(pool)

    row = st.tuples(*map(cell, header)).map(b",".join)
    blank = st.sampled_from([b"", b"   ", b",,", b", ,"])
    ragged = st.lists(st.sampled_from(_NUMBERS), max_size=len(header) + 1)
    lines = st.one_of(row, row, row, blank,
                      *[ragged.map(b",".join)] * (mode == "any"))
    end = draw(st.sampled_from([b"\n", b"\r\n"]))
    body = [",".join(header).encode()] + draw(st.lists(
        lines, min_size=draw(st.sampled_from([0, 6])), max_size=12))
    return end.join(body) + end * draw(st.booleans()), effort


@pytest.mark.parametrize("chunk_rows", [3, dataset._CHUNK_ROWS])
@settings(max_examples=150, deadline=None)
@given(_csv_files())
def test_load_csv_matches_the_cell_by_cell_oracle(chunk_rows, drawn):
    content, effort = drawn
    with tempfile.TemporaryDirectory() as d:
        path = os.path.join(d, "t.csv")
        with open(path, "wb") as fh:
            fh.write(content)
        with mock.patch.object(dataset, "_CHUNK_ROWS", chunk_rows):
            new, old = _load_both(path, effort)
    _assert_same_load(new, old)


# Lines 2-10 fill three 3-row chunks exactly, with blank lines 4, 6 and 7
# in the first two; a bad line 11 starts the fourth chunk.
_CHUNKED = "wmc,loc,bug\n1,5,0\n2,5,1\n\n3,5,0\n\n\n4,5,1\n5,5,0\n6,5,1\n"


@pytest.mark.parametrize("bad, message", [
    ("7,5,x\n", r"line 11, column 'bug': cell 'x' is neither"),
    ("7,5\n", r"line 11 has 2 cells, header has 3"),
    ("7,inf,0\n", r"line 11, column 'loc': cell value inf is not finite"),
    ("7,inf,0\n8,5,0\n9,5,0\n10,5,x\n",
     r"line 14, column 'bug': cell 'x' is neither"),
], ids=["bad cell", "ragged row", "infinite cell",
        "infinite cell, then a bad cell in the next chunk"])
def test_load_csv_error_lines_across_chunks(tmp_path, monkeypatch, bad,
                                           message):
    monkeypatch.setattr(dataset, "_CHUNK_ROWS", 3)
    path = tmp_path / "chunks.csv"
    path.write_text(_CHUNKED + bad + "8,5,0\n")
    new, old = _load_both(path, "loc")
    assert new == old
    assert re.search(message, new)


def test_load_csv_finds_infinite_cells_without_the_row_check(tmp_path,
                                                              monkeypatch):
    # infinite cells are the only fault, in both 3-row chunks: line 3 holds
    # the first, though an earlier column turns infinite on line 4
    monkeypatch.setattr(dataset, "_CHUNK_ROWS", 3)
    path = tmp_path / "inf.csv"
    path.write_text("wmc,loc,bug\n1,5,0\n2,5,-inf\ninf,5,0\n"
                    "4,inf,0\n5,5,inf\n6,5,0\n")
    with mock.patch.object(dataset, "_check_rows",
                           wraps=dataset._check_rows) as check:
        with pytest.raises(DatasetError) as info:
            load_csv(path, label_column="bug", effort_column="loc")
    assert str(info.value) == (f"{path}: line 3, column 'bug': cell value "
                               f"-inf is not finite")
    check.assert_not_called()


@pytest.mark.parametrize("text", [
    "name,wmc,loc,bug\nA,1,5,0\nB,2,?,1\n",
    "wmc,loc,bug\n1,5,0\n2,?,1\n",
], ids=["identifier first", "attribute first"])
def test_load_csv_skips_a_leading_bom(tmp_path, text):
    # a spreadsheet's "CSV UTF-8" export starts with a byte order mark
    plain, bom = tmp_path / "plain.csv", tmp_path / "bom.csv"
    plain.write_bytes(text.encode())
    bom.write_bytes(b"\xef\xbb\xbf" + text.encode())
    _assert_same_load(load_csv(bom, "bug"), load_csv(plain, "bug"))


@pytest.mark.parametrize("text, rows", [
    ("wmc,loc,bug\n1,5,0\n2,?,1\n3,5,0\n", 3),
    (_CHUNKED, 6),
    ("wmc,loc,bug\n", 0),
    ("wmc,loc,bug\n\n , \n,,\n", 0),
], ids=["one whole chunk", "rows a multiple of the chunk", "no rows",
        "only blank rows"])
def test_load_csv_chunk_boundaries(tmp_path, monkeypatch, text, rows):
    monkeypatch.setattr(dataset, "_CHUNK_ROWS", 3)
    path = tmp_path / "chunks.csv"
    path.write_text(text)
    new, old = _load_both(path, None)
    assert not isinstance(new, str), new
    assert len(new) == rows and new.values.shape == (rows, 2)
    _assert_same_load(new, old)


def _pipe(text: str) -> int:
    read_end, write_end = os.pipe()
    with os.fdopen(write_end, "w") as fh:
        fh.write(text)
    return read_end


# A quoted cell spans lines 2-3, so the bad row is the third record but
# starts on line 5.
_MULTILINE = 'wmc,loc,bug\n"1\n",5,0\n2,5,1\n'


@pytest.mark.skipif(not os.path.isdir("/dev/fd"), reason="needs /dev/fd")
@pytest.mark.parametrize("chunk_rows", [2, dataset._CHUNK_ROWS])
@pytest.mark.parametrize("bad, message", [
    ("7,5,x\n", r": line 5, column 'bug': cell 'x' is neither"),
    ("7,5\n", r": line 5 has 2 cells, header has 3"),
    ("7,inf,0\n", r": line 5, column 'loc': cell value inf is not finite"),
], ids=["bad cell", "ragged row", "infinite cell"])
def test_load_csv_error_lines_count_lines_not_rows(tmp_path, monkeypatch,
                                                   chunk_rows, bad, message):
    monkeypatch.setattr(dataset, "_CHUNK_ROWS", chunk_rows)
    path = tmp_path / "multiline.csv"
    path.write_text(_MULTILINE + bad + "8,5,0\n")
    new, old = _load_both(path, "loc")
    assert new == old
    assert re.search(message, new)
    pipe = _pipe(_MULTILINE + bad + "8,5,0\n")
    try:
        with pytest.raises(DatasetError, match=message):
            load_csv(f"/dev/fd/{pipe}", label_column="bug",
                     effort_column="loc")
    finally:
        os.close(pipe)


@pytest.mark.skipif(not os.path.isdir("/dev/fd"), reason="needs /dev/fd")
def test_load_csv_from_a_pipe():
    good, bad = _pipe("wmc,bug\n1,0\n2,1\n"), _pipe("wmc,bug\n1,0\nx,1\n")
    try:
        assert len(load_csv(f"/dev/fd/{good}", label_column="bug")) == 2
        with pytest.raises(DatasetError) as info:
            load_csv(f"/dev/fd/{bad}", label_column="bug")
        assert str(info.value) == (f"/dev/fd/{bad}: line 3, column 'wmc': "
                                   f"cell 'x' is neither numeric nor a "
                                   f"missing marker")
    finally:
        os.close(good)
        os.close(bad)


# 3000 good rows (12 KB) put an \xff byte and a bad row more than one 8 KB
# decode block apart, inside one 4096-row chunk.
_FILLER = b"1,0\n" * 3000


@pytest.mark.parametrize("body, message", [
    (b"1\n" + _FILLER + b"\xff,1\n", r"line 2 has 1 cells, header has 2$"),
    (b"inf,0\n" + _FILLER + b"\xff,1\n", r"not a readable UTF-8 CSV"),
    (_FILLER + b"\xff,1\n" + _FILLER + b"1\n", r"not a readable UTF-8 CSV"),
], ids=["ragged row, then bad byte", "infinite cell, then bad byte",
        "bad byte, then ragged row"])
def test_load_csv_read_error_and_a_bad_row_in_one_chunk(tmp_path, body,
                                                        message):
    path = tmp_path / "mixed.csv"
    path.write_bytes(b"wmc,bug\n" + body)
    new, old = _load_both(path, None)
    assert new == old
    assert re.search(message, new)


_PROJECTABLE = ("name,wmc,cbo,rfc,loc,bug\n"
                + "".join(f"m{i},{i % 4},{(3 * i) % 7},?,{10 + i},{i % 3}\n"
                          for i in range(7))).encode()


@pytest.mark.parametrize("chunk_rows", [3, dataset._CHUNK_ROWS])
@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_load_csv_of_some_attributes_is_the_full_load_projected(chunk_rows,
                                                                data):
    content = _PROJECTABLE
    for _ in range(data.draw(st.integers(0, 2))):
        content = data.draw(spliced(content))
    effort = data.draw(st.sampled_from([None, "loc"]))
    with tempfile.TemporaryDirectory() as d:
        path = os.path.join(d, "t.csv")
        with open(path, "wb") as fh:
            fh.write(content)
        with mock.patch.object(dataset, "_CHUNK_ROWS", chunk_rows):
            try:
                full = load_csv(path, "bug", effort_column=effort)
            except DatasetError:
                return
            attrs = data.draw(st.permutations(full.attributes).flatmap(
                lambda names: st.integers(0, len(names)).map(
                    lambda k: tuple(names[:k]))))
            some = load_csv(path, "bug", effort_column=effort,
                            attributes=attrs)
    _assert_same_load(some, project(full, attrs))


@pytest.mark.parametrize("attr, why", [
    ("rfc", "is not in the header"), ("name", "is excluded"),
    ("bug", "is the label column"), ("loc", "is the effort column")])
def test_load_csv_rejects_an_attribute_it_cannot_keep(tmp_path, attr, why):
    path = tmp_path / "t.csv"
    path.write_text("name,wmc,loc,bug\nm,1,5,0\n")
    with pytest.raises(DatasetError) as info:
        load_csv(path, "bug", effort_column="loc", attributes=("wmc", attr))
    assert str(info.value) == f"{path}: attribute {attr!r} {why}"


def test_load_csv_keeps_attributes_in_the_order_given(tmp_path):
    path = tmp_path / "t.csv"
    path.write_text("wmc,x,cbo,bug\n1,junk,2,0\n3,1e999,4,1\n")
    ds = load_csv(path, "bug", attributes=("cbo", "wmc"))
    assert ds.attributes == ("cbo", "wmc")
    assert ds.values.tolist() == [[2.0, 1.0], [4.0, 3.0]]


def test_load_csv_rejects_a_kept_attribute_heading_two_columns(tmp_path):
    path = tmp_path / "t.csv"
    path.write_text("wmc,cbo,cbo,wmc,bug\n1,2,3,4,0\n")
    with pytest.raises(DatasetError, match=r"duplicate attribute columns "
                                           r"\['cbo'\]"):
        load_csv(path, "bug", attributes=("cbo",))


# ------------------------------------------------- the loadtxt fast path

def _spy(name):
    return mock.patch.object(dataset, name, wraps=getattr(dataset, name))


# Six clean rows on lines 2-7 fill two 3-row chunks.  Each case's line is
# line 8, the first of the third chunk, and one clean row follows it.
_FAST_HEAD = "wmc,loc,bug,name\n" + "".join(
    f"{i},{i + 5},{i % 2},m{i}\n" for i in range(6))


@pytest.mark.parametrize("line, fast", [
    ("1_0,5,0,m\n", False),
    ("１,5,0,m\n", False),
    (" ? ,5,0,m\n", False),
    ("? ,5,0,m\n", True),
    ("?,5,?,m\n", True),
    ("-?,5,0,m\n", False),
    ("?1,5,0,m\n", False),
    (" \t,5,0,m\n", False),
    (",5,0,m\n", False),
    ("inf,5,0,m\n", True),
    ("1,5,-Infinity,m\n", True),
    ("1e999,5,0,m\n", True),
    ("nan,5,-nan,m\n", True),
    ("#,5,0,m\n", False),
    ("1,5,0,#m\n", True),
    ("1,5,0\n", False),
    ("1,5,0,m,x\n", False),
    ("\n", False),
    ("   \n", False),
    (",,,\n", False),
    ('1,5,0,"m\nn"\n', False),
    ("1,5,0,m\x00\n", False),
    ("1,0,0,m\n", False),
    ("1,?,0,m\n", False),
], ids=["underscore", "fullwidth digit", "padded marker",
        "marker then space", "markers", "signed marker", "marker then digit",
        "whitespace cell", "empty cell",
        "inf", "-Infinity", "1e999", "nan", "# cell", "# identifier",
        "ragged, usecols all there", "ragged, one cell more", "empty line",
        "whitespace line", "blank row", "quoted line break", "NUL",
        "zero effort", "missing effort"])
def test_load_csv_fast_path_agrees_with_the_oracle(tmp_path, monkeypatch,
                                                   line, fast):
    # a case loadtxt would read apart from float() goes to the csv path
    monkeypatch.setattr(dataset, "_CHUNK_ROWS", 3)
    path = tmp_path / "t.csv"
    path.write_text(_FAST_HEAD + line + "7,12,1,m7\n")
    with _spy("_parse_rows") as csv_path:
        new, old = _load_both(path, "loc")
    _assert_same_load(new, old)
    if fast:
        csv_path.assert_not_called()
    else:
        csv_path.assert_called_once()
        assert csv_path.call_args.args[1] == 8


@pytest.mark.parametrize("body, fast", [
    (_FAST_HEAD.replace("\n", "\r\n"), True),
    (_FAST_HEAD.replace("\n", "\r"), False),
    (_FAST_HEAD.replace("\n", "\r\n", 4), True),
    (_FAST_HEAD.rstrip("\n"), True),
    (_FAST_HEAD.rstrip("\n") + "\r", False),
], ids=["CRLF", "bare CR", "CRLF, then LF", "no final newline",
        "bare CR last"])
def test_load_csv_line_endings(tmp_path, monkeypatch, body, fast):
    monkeypatch.setattr(dataset, "_CHUNK_ROWS", 3)
    path = tmp_path / "t.csv"
    path.write_bytes(body.encode())
    with _spy("_parse_rows") as csv_path:
        new, old = _load_both(path, "loc")
    _assert_same_load(new, old)
    assert len(new) == 6
    assert csv_path.called is not fast


def test_load_csv_quoted_comma_that_the_comma_count_misses(tmp_path):
    # the quoted comma stands in for the missing cell, so only the quote
    # keeps loadtxt (which reads no quotes) from taking the ragged row
    path = tmp_path / "t.csv"
    path.write_text('name,version,wmc,bug\n"a,b",1,0\n')
    new, old = _load_both(path, None)
    assert new == old == f"{path}: line 2 has 3 cells, header has 4"


def test_load_csv_fast_path_skips_a_bom(tmp_path, monkeypatch):
    monkeypatch.setattr(dataset, "_CHUNK_ROWS", 3)
    plain, bom = tmp_path / "plain.csv", tmp_path / "bom.csv"
    plain.write_bytes(_FAST_HEAD.encode())
    bom.write_bytes(b"\xef\xbb\xbf" + _FAST_HEAD.encode())
    with _spy("_parse_rows") as csv_path:
        _assert_same_load(load_csv(bom, "bug", "loc"),
                          load_csv(plain, "bug", "loc"))
    csv_path.assert_not_called()


def test_load_csv_bad_byte_after_clean_chunks(tmp_path, monkeypatch):
    # lines 2-2001 (8 KB) fill two 1000-line chunks, which parse; the bad
    # byte is past the first 8 KB decode block, so the third chunk's lines
    # read before it reach the csv path, which raises the read error
    monkeypatch.setattr(dataset, "_CHUNK_ROWS", 1000)
    path = tmp_path / "t.csv"
    path.write_bytes(b"wmc,bug\n" + b"1,0\n" * 2500 + b"\xff,1\n"
                     + b"1,0\n" * 10)
    with _spy("_parse_rows") as csv_path:
        new, old = _load_both(path, None)
    assert new == old
    assert "not a readable UTF-8 CSV ('utf-8' codec can't decode" in new
    assert csv_path.call_args.args[1] == 2002


@pytest.mark.parametrize("effort", [None, "loc"])
def test_load_csv_clean_chunks_never_reach_the_csv_path(tmp_path,
                                                        monkeypatch, effort):
    # 13 rows: four full 3-row chunks and one of one row
    monkeypatch.setattr(dataset, "_CHUNK_ROWS", 3)
    path = tmp_path / "t.csv"
    path.write_text("wmc,loc,bug,name\n" + "".join(
        f"{i if i % 4 else '?'},{i + 5},{i % 2},m{i}\n" for i in range(13)))
    with _spy("_parse_rows") as csv_path, _spy("_loadtxt_block") as fast:
        new, old = _load_both(path, effort)
    _assert_same_load(new, old)
    assert len(new) == 13
    assert fast.call_count == 5
    csv_path.assert_not_called()


@pytest.mark.parametrize("k", [1, 2, 3])
@pytest.mark.parametrize("bad, message", [
    ("x", "line {line}, column 'wmc': cell 'x' is neither numeric nor a "
          "missing marker"),
    (" 1_0", "line 3, column 'wmc': cell value inf is not finite"),
], ids=["bad cell", "cell only float() reads"])
def test_load_csv_hands_over_at_the_first_chunk_that_is_not_clean(
        tmp_path, monkeypatch, k, bad, message):
    # four 3-row chunks (0-3), an infinite cell on line 3 in chunk 0; the
    # case is chunk k's second row, so the csv path starts at chunk k
    monkeypatch.setattr(dataset, "_CHUNK_ROWS", 3)
    rows = [f"{i},{i + 5},{i % 2},m{i}\n" for i in range(12)]
    rows[1] = "inf,6,1,m1\n"
    line = 3 * k + 3
    rows[line - 2] = f"{bad},5,0,m\n"
    path = tmp_path / "t.csv"
    path.write_text("wmc,loc,bug,name\n" + "".join(rows))
    with _spy("_parse_rows") as csv_path:
        new, old = _load_both(path, "loc")
    _assert_same_load(new, old)
    assert new == f"{path}: " + message.format(line=line)
    csv_path.assert_called_once()
    assert csv_path.call_args.args[1] == 3 * k + 2


def test_load_csv_skips_columns_with_a_blank_header(tmp_path):
    plain, trailing = tmp_path / "plain.csv", tmp_path / "trailing.csv"
    plain.write_text("wmc,cbo,bug\n1,2,0\n3,?,1\n")
    trailing.write_text("wmc,cbo,bug,\n1,2,0,\n3,?,1,\n")
    _assert_same_load(load_csv(trailing, "bug"), load_csv(plain, "bug"))
    # a blank column is never parsed, wherever it sits
    middle = tmp_path / "middle.csv"
    middle.write_text("wmc, ,cbo,bug\n1,x,2,0\n3,inf,?,1\n")
    _assert_same_load(load_csv(middle, "bug"), load_csv(plain, "bug"))


# --------------------------------------------------------------- LabelRule

def test_label_rule_validation():
    assert LabelRule.bug_counts() == LabelRule() == LabelRule(">", 0.0)
    for op in ("<=", "=", "less-than", ""):
        with pytest.raises(DatasetError, match="bad label rule op"):
            LabelRule(op, 30)


# ---------------------------------------------------------------- binarize

def test_binarize_bug_counts(toy_csv):
    ds = binarize(load_csv(toy_csv, label_column="bug"), LabelRule.bug_counts())
    assert ds.binary
    assert ds.labels.tolist() == [False, True, False, True]


def test_binarize_days_thresholds_are_strict():
    raw = make_dataset(("a",), [[1], [2], [3]], labels=[400, 10, 30],
                       binary=False)
    lt = binarize(raw, LabelRule("<", 30))
    assert lt.labels.tolist() == [False, True, False]
    gt = binarize(raw, LabelRule(">", 30))
    assert gt.labels.tolist() == [True, False, False]


def test_binarize_twice_is_rejected(toy_csv):
    ds = binarize(load_csv(toy_csv, label_column="bug"), LabelRule.bug_counts())
    with pytest.raises(DatasetError, match="already binary"):
        binarize(ds, LabelRule.bug_counts())


def test_binarize_rejects_missing_label():
    raw = make_dataset(("a",), [[1], [2]], labels=[1.0, np.nan], binary=False)
    with pytest.raises(DatasetError, match="data row 2 has a missing label"):
        binarize(raw, LabelRule.bug_counts())


# ----------------------------------------------------------------- Dataset

def test_dataset_arrays_are_write_locked(six_rows):
    with pytest.raises(ValueError):
        six_rows.values[0, 0] = 99.0
    with pytest.raises(ValueError):
        six_rows.labels[0] = False
    with pytest.raises(ValueError):
        six_rows.effort[0] = 1.0


@pytest.mark.parametrize("layout", ["fortran", "strided"])
def test_dataset_stores_c_contiguous_values(layout):
    # a logistic fit's bits must not depend on the layout it was given
    raw = synth.make_corpus(names=("ant",), seed=7, rows=600)["ant"][0]
    ds = binarize(raw, LabelRule.bug_counts())
    values, labels = ds.values, ds.labels
    if layout == "fortran":
        values = np.asfortranarray(values)
    else:
        values, labels = values[::2], labels[::2]
    assert not values.flags.c_contiguous
    given = Dataset(name="g", version="", attributes=ds.attributes,
                    values=values, labels=labels)
    copy = Dataset(name="c", version="", attributes=ds.attributes,
                   values=np.array(values, order="C"), labels=labels)
    assert given.values.flags.c_contiguous
    assert np.array_equal(given.values, values, equal_nan=True)
    got, want = lr_train(given), lr_train(copy)
    assert np.array_equal(got.weights, want.weights)
    assert got.bias == want.bias
    assert np.array_equal(got.feature_means, want.feature_means)
    assert np.array_equal(got.feature_stds, want.feature_stds)


def test_dataset_shape_validation():
    with pytest.raises(DatasetError, match="labels"):
        Dataset(name="t", version="", attributes=("a",),
                values=np.zeros((2, 1)), labels=np.array([True]))
    with pytest.raises(DatasetError, match="attributes"):
        Dataset(name="t", version="", attributes=("a", "b"),
                values=np.zeros((2, 1)), labels=np.array([True, False]))


@pytest.mark.parametrize("field, bad, message", [
    ("values", np.zeros(2), "values must be 2-D, got shape (2,)"),
    ("values", np.zeros((2, 1, 1)), "values must be 2-D, got shape (2, 1, 1)"),
    ("labels", np.zeros((2, 1), dtype=bool),
     "labels must be 1-D, got shape (2, 1)"),
    ("labels", np.float64(1.0), "labels must be 1-D, got shape ()"),
    ("effort", np.float64(3.0), "effort must be 1-D, got shape ()"),
    ("effort", np.ones((2, 2)), "effort must be 1-D, got shape (2, 2)"),
], ids=["values 1-D", "values 3-D", "labels 2-D", "labels 0-D", "effort 0-D",
        "effort 2-D"])
def test_dataset_rejects_arrays_of_the_wrong_rank(field, bad, message):
    fields = {"values": np.zeros((2, 1)), "labels": np.array([True, False]),
              "effort": np.ones(2), field: bad}
    with pytest.raises(DatasetError) as err:
        Dataset(name="t", version="", attributes=("a",), **fields)
    assert str(err.value) == f"t: {message}"


def test_dataset_rejects_repeated_attribute_names():
    # routing reads the first column of a name, so a split found on a
    # later one could not be told apart from it
    with pytest.raises(DatasetError) as err:
        Dataset(name="t", version="", attributes=("a", "b", "a", "c", "b"),
                values=np.zeros((2, 5)), labels=np.array([True, False]))
    assert str(err.value) == "t: repeated attribute names ['a', 'b']"


def test_dataset_rejects_nonpositive_effort():
    with pytest.raises(DatasetError, match="effort must be > 0"):
        make_dataset(("a",), [[1], [2]], labels=[True, False], effort=[5, 0])


def test_dataset_rejects_an_effort_total_that_overflows():
    # Popt reads efforts only as shares of their total, so a total beyond
    # the float range must be rescaled; the check itself warns nothing
    with pytest.raises(DatasetError) as err:
        make_dataset(("a",), [[1], [2]], labels=[True, False],
                     effort=[1e308, 1e308], name="huge")
    assert str(err.value) == ("huge: effort total overflows; rescale the "
                              "effort column")
    halves = [make_dataset(("a",), [[v]], labels=[v > 1], effort=[1e308],
                           name=name) for v, name in ((1, "old"), (2, "new"))]
    with pytest.raises(DatasetError, match="^old\\+new: effort total "
                                           "overflows"):
        merge(halves)
    for effort in ([1e305] * 40, [8.9e307, 8.9e307]):   # these totals fit
        assert len(make_dataset(("a",), [[1]] * len(effort),
                                labels=[True] * len(effort),
                                effort=effort)) == len(effort)


def test_dataset_column_row_subset(six_rows):
    assert six_rows.column("a").tolist() == [1, 2, 3, 4, 5, 6]
    with pytest.raises(DatasetError, match="no attribute 'zzz'"):
        six_rows.column("zzz")
    sub = six_rows.subset([5, 0])
    assert sub.column("a").tolist() == [6.0, 1.0]
    assert sub.labels.tolist() == [False, True]
    assert sub.effort.tolist() == [60.0, 10.0]
    assert len(sub) == 2


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


# ---------------------------------------------------------------- save_csv

def test_save_load_round_trip_with_missing_cells(tmp_path, toy_csv):
    ds = load_csv(toy_csv, label_column="bug")
    out = tmp_path / "again.csv"
    save_csv(ds, out, label_column="bug")
    back = load_csv(out, label_column="bug")
    assert back.attributes == ds.attributes
    assert np.array_equal(back.values, ds.values, equal_nan=True)
    assert np.array_equal(back.labels, ds.labels)


def test_save_csv_writes_missing_as_question_mark(tmp_path, toy_csv):
    ds = load_csv(toy_csv, label_column="bug")
    out = tmp_path / "q.csv"
    save_csv(ds, out, label_column="bug")
    assert ",?," in out.read_text()


def test_save_csv_binary_labels_round_trip(tmp_path, toy_csv):
    ds = binarize(load_csv(toy_csv, label_column="bug"), LabelRule.bug_counts())
    out = tmp_path / "bin.csv"
    save_csv(ds, out, label_column="bug")
    back = binarize(load_csv(out, label_column="bug"),
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


def test_save_csv_bytes_of_the_synthetic_corpus(tmp_path):
    # the benchmark's rig-cv inputs; synth's class names reach the file as
    # a leading name column through Dataset.row_names
    want = {
        "ant-1.0": "ed8ca97e8744a894c85a87610bc1067bd49c8b9c6096862525e3334e2c965806",
        "ant-2.0": "9e0e44743e849729af6c6477faced1292c329c073306046c54a8837ace3d2dd4",
        "ant-3.0": "2fa2f52e0b931c3db8345ad8fe545af9a30e431303fe088a24d0cf5e7c8e0d19",
    }
    got = {}
    for ds in synth.make_corpus(names=("ant",), seed=7, rows=150)["ant"]:
        path = tmp_path / f"{ds.name}.csv"
        save_csv(ds, path)
        got[ds.name] = hashlib.sha256(path.read_bytes()).hexdigest()
        assert path.read_text().startswith("name,wmc,")
        assert load_csv(path, label_column="bug").attributes == ds.attributes
    assert got == want



_SPECIAL = (np.nan, -0.0, 5e-324, 0.1, 2.0**53 + 2, 2.0**63, -2.0**63, 1e16,
            1e300, -1e300, -(2.0**53 + 2), 3.0)


def _assert_oracle_bytes(ds, tmp_path, **columns):
    save_csv(ds, tmp_path / "new.csv", **columns)
    save_csv_oracle(ds, tmp_path / "old.csv", **columns)
    assert ((tmp_path / "new.csv").read_bytes()
            == (tmp_path / "old.csv").read_bytes())


def _special_table(rows: int, binary: bool, named: bool) -> Dataset:
    """``rows`` rows cycling through ``_SPECIAL`` (a different phase per
    column) and through row names that need quoting."""
    cells = np.resize(np.array(_SPECIAL), (rows + 3) * 3)
    values = np.column_stack([cells[j:j + rows] for j in range(3)])
    labels = (np.arange(rows) % 3 == 0 if binary
              else np.resize(np.array([0.0, 2.0, 0.5, np.nan, 1e300]), rows))
    effort = np.resize(np.array([5e-324, 0.1, 2.0**53 + 2, 2.0**63, 1e16,
                                 1e300, 7.0]), rows)
    names = ("a,b", 'say "hi"', "cr\rhere", "lf\nhere", "", "plain")
    return Dataset(name="special", version="", attributes=("x", "y", "z"),
                   values=values, labels=labels, effort=effort,
                   row_names=tuple(np.resize(names, rows).tolist())
                   if named and rows else ())


@pytest.mark.parametrize("named", [False, True])
@pytest.mark.parametrize("effort", [None, "effort"])
@pytest.mark.parametrize("binary", [False, True])
@pytest.mark.parametrize("extra", [(0, 0), (0, 1), (1, -1), (1, 0), (1, 1),
                                   (3, 7)])
def test_save_csv_bytes_equal_the_oracle_at_block_edges(tmp_path, extra,
                                                        binary, effort, named):
    blocks, rest = extra
    ds = _special_table(blocks * dataset._WRITE_ROWS + rest, binary, named)
    _assert_oracle_bytes(ds, tmp_path, effort_column=effort)


def test_save_csv_writes_each_special_cell_by_its_rule(tmp_path):
    ds = _special_table(len(_SPECIAL), binary=False, named=False)
    save_csv(ds, tmp_path / "s.csv", label_column="defects",
             effort_column="loc")
    cells = {cell for line in (tmp_path / "s.csv").read_text().splitlines()
             for cell in line.split(",")}
    assert cells >= {"?", "0", "5e-324", "0.1", "9007199254740994",
                     "-9007199254740994", "9223372036854775808",
                     "-9223372036854775808", "10000000000000000",
                     str(int(1e300)), str(int(-1e300))}
    assert "-0" not in cells


def test_save_csv_quoted_names_load_back(tmp_path):
    ds = _special_table(12, binary=False, named=True)
    _assert_oracle_bytes(ds, tmp_path)
    text = (tmp_path / "new.csv").read_bytes().decode()
    assert '"a,b",' in text and '"say ""hi""",' in text
    assert '"lf\nhere",' in text
    # csv quotes only the line terminator's own characters, so a bare CR
    # stays unquoted and splits the record on reading; load the rest
    ds = replace(ds, row_names=tuple(name.replace("\r", "")
                                     for name in ds.row_names))
    save_csv(ds, tmp_path / "new.csv")
    back = load_csv(tmp_path / "new.csv", label_column="bug")
    assert back.attributes == ds.attributes
    assert np.array_equal(back.values, ds.values, equal_nan=True)
    assert np.array_equal(back.labels, ds.labels, equal_nan=True)


@pytest.mark.parametrize("where, x, message", [
    ((1, 1), -np.inf, "data row 2, column 'b': cell value -inf"),
    ((0, 1), np.inf, "data row 1, column 'b': cell value inf"),
])
def test_save_csv_rejects_an_infinite_cell_before_writing(tmp_path, where, x,
                                                          message):
    values = np.ones((3, 2))
    values[where] = x
    values[2, 0] = np.inf       # a later row, though an earlier column
    ds = Dataset(name="inf", version="", attributes=("a", "b"),
                 values=values, labels=np.zeros(3), row_names=("p", "q", "r"))
    out = tmp_path / "inf.csv"
    with pytest.raises(DatasetError, match=re.escape(message)):
        save_csv(ds, out)
    assert not out.exists()


def test_save_csv_rejects_an_infinite_label(tmp_path):
    ds = make_dataset(("a",), [[1], [2]], labels=[0, np.inf], binary=False)
    with pytest.raises(DatasetError,
                       match="data row 2, column 'defects': cell value inf"):
        save_csv(ds, tmp_path / "x.csv", label_column="defects")
    assert not (tmp_path / "x.csv").exists()


_ANY_CELL = st.one_of(st.just(np.nan), st.sampled_from(_SPECIAL),
                      st.floats(allow_nan=False, allow_infinity=False),
                      st.integers(-2**70, 2**70).map(float))


@st.composite
def _writable_tables(draw):
    n_attr = draw(st.integers(0, 3))
    n_rows = draw(st.integers(0, 9))
    cells = draw(st.lists(_ANY_CELL, min_size=n_attr * n_rows,
                          max_size=n_attr * n_rows))
    binary = draw(st.booleans())
    labels = draw(st.lists(st.booleans() if binary else _ANY_CELL,
                           min_size=n_rows, max_size=n_rows))
    effort = draw(st.none() | st.lists(
        st.floats(min_value=5e-324, max_value=1e300), min_size=n_rows,
        max_size=n_rows))
    names = draw(st.just([]) | st.lists(st.text(max_size=4),
                                        min_size=n_rows, max_size=n_rows))
    return Dataset(
        name="drawn", version="",
        attributes=tuple(f"m{j}" for j in range(n_attr)),
        values=np.array(cells, dtype=float).reshape(n_rows, n_attr),
        labels=np.array(labels, dtype=bool if binary else float),
        effort=None if effort is None else np.array(effort),
        row_names=tuple(names))


@settings(max_examples=60, deadline=None)
@given(_writable_tables(), st.integers(1, 4))
def test_save_csv_bytes_equal_the_oracle_property(ds, block):
    effort = None if ds.effort is None else "effort"
    with tempfile.TemporaryDirectory() as d, \
            mock.patch.object(dataset, "_WRITE_ROWS", block):
        new, old = os.path.join(d, "new.csv"), os.path.join(d, "old.csv")
        save_csv(ds, new, effort_column=effort)
        save_csv_oracle(ds, old, effort_column=effort)
        with open(new, "rb") as a, open(old, "rb") as b:
            assert a.read() == b.read()

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
