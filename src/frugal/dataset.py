"""Tabular data model and CSV ingestion.

A :class:`Dataset` is an immutable named table of numeric attribute columns,
one label column (raw counts/days before binarization, booleans after) and an
optional per-row effort column (e.g. lines of code).  Missing numeric cells
are stored as NaN; downstream code treats NaN as "never matches".

``load_csv`` reads a file in chunks of rows and parses each chunk column by
column.  A numeric cell is whatever Python's ``float()`` accepts, after
stripping the whitespace around it, or a missing marker (``?`` or empty).
A file that breaks a rule is read again row by row, so that the error names
the first bad line and column.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field, replace
from itertools import islice

import numpy as np

from .errors import DatasetError

MISSING_MARKERS = ("", "?")
# A bare marker cell is read as float("nan").
_MISSING = dict.fromkeys(MISSING_MARKERS, "nan")
# Rows parsed per chunk.  Every cell string of a chunk is alive while its
# columns are parsed, so the chunk bounds the memory a load needs on top of
# its result.
_CHUNK_ROWS = 4096

# Columns that identify rows (class name, version string) rather than measure
# them.  Matched by header name, so duplicated headers are covered too.
DEFAULT_EXCLUDE = ("name", "version")


@dataclass(frozen=True)
class LabelRule:
    """How a raw numeric label column becomes a boolean target.

    ``bug-count-positive`` marks a row positive when its defect count exceeds
    zero.  ``days-threshold`` compares a duration against ``threshold_days``
    in the given ``direction`` ("less-than" or "greater-than").
    """

    kind: str
    threshold_days: float = 0.0
    direction: str = ""

    def __post_init__(self):
        if self.kind == "bug-count-positive":
            return
        if self.kind != "days-threshold":
            raise DatasetError(f"unknown label rule kind: {self.kind!r}")
        if self.direction not in ("less-than", "greater-than"):
            raise DatasetError(f"bad direction: {self.direction!r}")
        if not self.threshold_days > 0:
            raise DatasetError("threshold_days must be > 0")

    @classmethod
    def bug_counts(cls) -> "LabelRule":
        return cls(kind="bug-count-positive")

    @classmethod
    def days(cls, direction: str, threshold: float) -> "LabelRule":
        return cls(kind="days-threshold", threshold_days=threshold,
                   direction=direction)


def _freeze(arr: np.ndarray) -> np.ndarray:
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True)
class Dataset:
    """Immutable table: attribute matrix, labels, optional effort.

    ``values`` has shape (rows, attributes); NaN marks a missing cell.
    ``labels`` is a float array before binarization and a bool array after.
    ``effort`` values must be strictly positive when present.
    """

    name: str
    version: str
    attributes: tuple[str, ...]
    values: np.ndarray
    labels: np.ndarray
    effort: np.ndarray | None = None
    metadata: dict = field(default_factory=dict)

    def __post_init__(self):
        values = np.asarray(self.values, dtype=float)
        if values.ndim != 2:
            values = values.reshape(len(self.labels), len(self.attributes))
        if values.shape[1] != len(self.attributes):
            raise DatasetError(
                f"{self.name}: rows have {values.shape[1]} values for "
                f"{len(self.attributes)} attributes")
        labels = np.asarray(self.labels)
        if labels.dtype != bool:
            labels = labels.astype(float)
        if len(labels) != values.shape[0]:
            raise DatasetError(f"{self.name}: {len(labels)} labels for "
                               f"{values.shape[0]} rows")
        effort = self.effort
        if effort is not None:
            effort = np.asarray(effort, dtype=float)
            if len(effort) != values.shape[0]:
                raise DatasetError(f"{self.name}: effort length mismatch")
            if not np.all(effort > 0):
                bad = int(np.flatnonzero(~(effort > 0))[0])
                raise DatasetError(
                    f"{self.name}: effort must be > 0 (row {bad + 1} "
                    f"has {effort[bad]!r})")
        object.__setattr__(self, "attributes", tuple(self.attributes))
        object.__setattr__(self, "values", _freeze(values))
        object.__setattr__(self, "labels", _freeze(labels))
        object.__setattr__(self, "effort",
                           None if effort is None else _freeze(effort))

    def __len__(self) -> int:
        return self.values.shape[0]

    @property
    def binary(self) -> bool:
        return self.labels.dtype == bool

    def column(self, attribute: str) -> np.ndarray:
        try:
            j = self.attributes.index(attribute)
        except ValueError:
            raise DatasetError(f"{self.name}: no attribute {attribute!r}")
        return self.values[:, j]

    def subset(self, indices) -> "Dataset":
        idx = np.asarray(indices, dtype=int)
        return Dataset(
            name=self.name, version=self.version, attributes=self.attributes,
            values=self.values[idx], labels=self.labels[idx],
            effort=None if self.effort is None else self.effort[idx],
            metadata={k: [v[i] for i in idx] for k, v in self.metadata.items()})


def _parse_cell(text: str, path, line_no: int, column: str) -> float:
    text = text.strip()
    if text in MISSING_MARKERS:
        return math.nan
    try:
        return float(text)
    except ValueError:
        raise DatasetError(
            f"{path}: line {line_no}, column {column!r}: "
            f"cell {text!r} is neither numeric nor a missing marker")


def _floats(cells, n: int) -> np.ndarray:
    return np.fromiter(map(float, map(_MISSING.get, cells, cells)), float,
                       count=n)


def _parse_column(cells, n: int) -> np.ndarray | None:
    """``_parse_cell`` over a column, or None when a cell is neither a
    number nor a missing marker.  ``float()`` ignores the whitespace around
    a number itself, so cells are stripped only when a padded marker (or a
    bad cell) makes the first pass fail."""
    try:
        return _floats(cells, n)
    except ValueError:
        try:
            return _floats([c.strip() for c in cells], n)
        except ValueError:
            return None


def _csv_rows(fh, path):
    try:
        yield from csv.reader(fh)
    except (UnicodeDecodeError, csv.Error) as exc:
        raise DatasetError(f"{path}: not a readable UTF-8 CSV ({exc})") from exc


def _parse_rows(reader, width: int, numeric: list[int], effort: bool,
                meta_cols: list[int]):
    """Parse the data rows a chunk at a time, column by column.

    Gives a (rows, len(numeric)) float table of the ``numeric`` columns and
    the stripped ``meta_cols`` cells, or None when the file breaks a rule:
    a read error, a ragged row, a cell that is no number, an effort (the
    last numeric column, when ``effort``) that is not > 0, or an infinite
    cell.  Blank rows are skipped.
    """
    blocks = [np.empty((0, len(numeric)))]
    meta = [[] for _ in meta_cols]
    chunks = iter(lambda: list(islice(reader, _CHUNK_ROWS)), [])
    try:
        for chunk in chunks:
            rows = [cells for cells in chunk if any(map(str.strip, cells))]
            if not rows:
                continue
            if set(map(len, rows)) != {width}:
                return None
            n = len(rows)
            cols = list(zip(*rows))
            del chunk, rows     # the column tuples hold the same cells
            parsed = [_parse_column(cols[j], n) for j in numeric]
            if any(col is None for col in parsed):
                return None
            blocks.append(np.column_stack(parsed))
            for out, j in zip(meta, meta_cols):
                out.extend(map(str.strip, cols[j]))
    except DatasetError:    # unreadable bytes; the row scan reports them
        return None
    table = np.concatenate(blocks)
    if np.isinf(table).any() or (effort and not (table[:, -1] > 0).all()):
        return None
    return table, meta


def _raise_first_error(fh, path, header, numeric: list[int],
                       effort_idx: int | None):
    """Read ``fh`` again and raise the error that a cell-by-cell load meets
    first: a read error, a ragged row, a bad cell (attributes, then label,
    then effort, as ``numeric`` lists them) or a bad effort, in row order;
    failing those, the first infinite cell in file order."""
    try:
        fh.seek(0)
    except OSError as exc:    # a pipe: its rows are gone
        raise DatasetError(f"{path}: malformed rows in a stream that "
                           f"cannot be re-read to locate them") from exc
    reader = _csv_rows(fh, path)
    next(reader)    # the header
    first_inf = None
    for line_no, cells in enumerate(reader, start=2):
        if not any(map(str.strip, cells)):
            continue
        if len(cells) != len(header):
            raise DatasetError(
                f"{path}: line {line_no} has {len(cells)} cells, "
                f"header has {len(header)}")
        row = {j: _parse_cell(cells[j], path, line_no, header[j])
               for j in numeric}
        if effort_idx is not None and not row[effort_idx] > 0:
            raise DatasetError(
                f"{path}: line {line_no}, column {header[effort_idx]!r}: "
                f"effort must be a positive number, got "
                f"{cells[effort_idx].strip()!r}")
        if first_inf is None:
            first_inf = next(((line_no, j, row[j]) for j in sorted(row)
                              if math.isinf(row[j])), None)
    if first_inf is None:
        raise RuntimeError(f"{path}: the column parse rejected rows that "
                           f"the row scan accepts")
    line_no, j, x = first_inf
    raise DatasetError(f"{path}: line {line_no}, column {header[j]!r}: "
                       f"cell value {x!r} is not finite")


def load_csv(path, label_column: str, effort_column: str | None = None,
             exclude=DEFAULT_EXCLUDE, name: str | None = None,
             version: str = "") -> Dataset:
    """Load one CSV into a Dataset.

    The first row is the header.  Columns named in ``exclude`` are kept as
    row metadata; every other non-label, non-effort column must be numeric
    ("?", an empty cell or ``nan`` marks a missing value).  An infinite cell
    in any attribute, label or effort column is an error, and so is a label
    or effort name that heads more than one column.
    """
    try:
        fh = open(path, newline="", encoding="utf-8")
    except OSError as exc:
        raise DatasetError(f"cannot read {path}: {exc}") from exc
    with fh:
        reader = _csv_rows(fh, path)
        try:
            header = [h.strip() for h in next(reader)]
        except StopIteration:
            raise DatasetError(f"{path}: empty file, no header row")
        for needed in (label_column, effort_column):
            if needed is not None and needed not in header:
                raise DatasetError(f"{path}: no column named {needed!r}")

        label_idx = header.index(label_column)
        effort_idx = header.index(effort_column) if effort_column else None
        meta_cols, attr_cols = [], []
        for j, col in enumerate(header):
            if j == label_idx or j == effort_idx:
                continue
            if col in exclude:
                meta_cols.append(j)
            else:
                attr_cols.append(j)
        attributes = [header[j] for j in attr_cols]
        if len(set(attributes)) != len(attributes):
            dupes = sorted({a for a in attributes if attributes.count(a) > 1})
            raise DatasetError(f"{path}: duplicate attribute columns {dupes}")
        for needed in (label_column, effort_column):
            if header.count(needed) > 1:
                raise DatasetError(f"{path}: {header.count(needed)} columns "
                                   f"are named {needed!r}")

        meta_keys = []
        seen: dict[str, int] = {}
        for j in meta_cols:
            key = header[j]
            if key in seen:
                seen[key] += 1
                key = f"{key}.{seen[header[j]] - 1}"
            else:
                seen[key] = 1
            meta_keys.append(key)

        numeric = attr_cols + [label_idx]
        if effort_idx is not None:
            numeric.append(effort_idx)
        parsed = _parse_rows(reader, len(header), numeric,
                             effort_idx is not None, meta_cols)
        if parsed is None:
            _raise_first_error(fh, path, header, numeric, effort_idx)

    table, meta = parsed
    n_attr = len(attr_cols)
    return Dataset(
        name=name if name is not None else str(path),
        version=version,
        attributes=tuple(attributes),
        values=table[:, :n_attr].copy(),
        labels=table[:, n_attr].copy(),
        effort=table[:, n_attr + 1].copy() if effort_idx is not None else None,
        metadata=dict(zip(meta_keys, meta)))


def _format_cell(x: float) -> str:
    if math.isnan(x):
        return "?"
    if float(x).is_integer():
        return str(int(x))
    return repr(float(x))


def save_csv(ds: Dataset, path, label_column: str = "bug",
             effort_column: str | None = None):
    """Write a dataset to CSV: metadata columns, attributes, then the label.

    ``effort_column`` adds the effort vector as its own column; leave it
    None when effort already mirrors an attribute (e.g. loc).
    """
    if effort_column is not None and ds.effort is None:
        raise DatasetError(f"{ds.name}: no effort vector to write")
    meta_keys = list(ds.metadata)
    header = meta_keys + list(ds.attributes) + [label_column]
    if effort_column is not None:
        header.append(effort_column)
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        for i in range(len(ds)):
            row = [str(ds.metadata[k][i]) for k in meta_keys]
            row += [_format_cell(x) for x in ds.values[i]]
            label = ds.labels[i]
            row.append(str(int(label)) if ds.binary else _format_cell(label))
            if effort_column is not None:
                row.append(_format_cell(ds.effort[i]))
            writer.writerow(row)


def binarize(ds: Dataset, rule: LabelRule) -> Dataset:
    """Apply a label rule, turning raw numeric labels into booleans.

    A missing label is rejected naming its data row: data rows count from
    1 after the header and skip blank lines, so data row N is row index
    N - 1 of the dataset, not line N of the file.
    """
    if ds.binary:
        raise DatasetError(f"{ds.name}: labels are already binary")
    raw = ds.labels
    if np.isnan(raw).any():
        bad = int(np.flatnonzero(np.isnan(raw))[0])
        raise DatasetError(
            f"{ds.name}: data row {bad + 1} has a missing label (data rows "
            "count from 1 after the header and skip blank lines)")
    if rule.kind == "bug-count-positive":
        flags = raw > 0
    elif rule.direction == "less-than":
        flags = raw < rule.threshold_days
    else:
        flags = raw > rule.threshold_days
    return replace(ds, labels=flags.astype(bool))


def merge(versions: list[Dataset]) -> Dataset:
    """Concatenate version datasets (identical attribute lists) in order."""
    if not versions:
        raise DatasetError("merge needs at least one dataset")
    first = versions[0]
    for ds in versions[1:]:
        if ds.attributes != first.attributes:
            raise DatasetError(
                f"attribute mismatch: {first.name} has {first.attributes}, "
                f"{ds.name} has {ds.attributes}")
        if ds.binary != first.binary:
            raise DatasetError("cannot merge raw and binarized labels")
    if len(versions) == 1:
        return first
    has_effort = [ds.effort is not None for ds in versions]
    if any(has_effort) and not all(has_effort):
        raise DatasetError("cannot merge datasets with and without effort")
    names = list(dict.fromkeys(ds.name for ds in versions))
    merged_meta: dict[str, list[str]] = {}
    for key in versions[0].metadata:
        if all(key in ds.metadata for ds in versions):
            merged_meta[key] = sum((list(ds.metadata[key]) for ds in versions), [])
    return Dataset(
        name="+".join(names),
        version="+".join(ds.version for ds in versions if ds.version),
        attributes=first.attributes,
        values=np.vstack([ds.values for ds in versions]),
        labels=np.concatenate([ds.labels for ds in versions]),
        effort=(np.concatenate([ds.effort for ds in versions])
                if all(has_effort) else None),
        metadata=merged_meta)
