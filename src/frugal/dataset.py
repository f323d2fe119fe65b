"""Tabular data model and CSV ingestion.

A :class:`Dataset` is an immutable named table of numeric attribute columns,
one label column (raw counts/days before binarization, booleans after) and an
optional per-row effort column (e.g. lines of code).  Missing numeric cells
are stored as NaN; downstream code treats NaN as "never matches".
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field, replace

import numpy as np

from .errors import DatasetError

MISSING_MARKERS = ("", "?")

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

    def describe(self) -> str:
        if self.kind == "bug-count-positive":
            return ">0"
        op = "<" if self.direction == "less-than" else ">"
        return f"{op}{self.threshold_days:g}"


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

    def row(self, i: int) -> dict:
        """Row as an attribute -> value mapping (NaN kept as-is)."""
        return dict(zip(self.attributes, self.values[i]))

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


def _csv_rows(fh, path):
    try:
        yield from csv.reader(fh)
    except (UnicodeDecodeError, csv.Error) as exc:
        raise DatasetError(f"{path}: not a readable UTF-8 CSV ({exc})") from exc


def load_csv(path, label_column: str, effort_column: str | None = None,
             exclude=DEFAULT_EXCLUDE, name: str | None = None,
             version: str = "") -> Dataset:
    """Load one CSV into a Dataset.

    The first row is the header.  Columns named in ``exclude`` are kept as
    row metadata; every other non-label, non-effort column must be numeric
    ("?", an empty cell or ``nan`` marks a missing value).  An infinite cell
    in any attribute, label or effort column is an error.
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

        rows, labels, efforts, blank_lines = [], [], [], []
        metadata: dict[str, list[str]] = {}
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
            metadata[key] = []

        for line_no, cells in enumerate(reader, start=2):
            if not cells or all(c.strip() == "" for c in cells):
                blank_lines.append(line_no)
                continue
            if len(cells) != len(header):
                raise DatasetError(
                    f"{path}: line {line_no} has {len(cells)} cells, "
                    f"header has {len(header)}")
            rows.append([_parse_cell(cells[j], path, line_no, header[j])
                         for j in attr_cols])
            labels.append(_parse_cell(cells[label_idx], path, line_no,
                                      label_column))
            if effort_idx is not None:
                eff = _parse_cell(cells[effort_idx], path, line_no,
                                  effort_column)
                if math.isnan(eff) or eff <= 0:
                    raise DatasetError(
                        f"{path}: line {line_no}, column {effort_column!r}: "
                        f"effort must be a positive number, got "
                        f"{cells[effort_idx].strip()!r}")
                efforts.append(eff)
            for key, j in zip(meta_keys, meta_cols):
                metadata[key].append(cells[j].strip())

    n = len(rows)
    values = np.array(rows, dtype=float).reshape(n, len(attributes))
    del rows    # the bulk of a load's memory; the checks below need none of it
    label_values = np.array(labels, dtype=float)
    effort = np.array(efforts, dtype=float) if effort_idx is not None else None
    if (np.isinf(values).any() or np.isinf(label_values).any()
            or (effort is not None and np.isinf(effort).any())):
        parsed = {j: values[:, k] for k, j in enumerate(attr_cols)}
        parsed[label_idx] = label_values
        if effort is not None:
            parsed[effort_idx] = effort
        in_file_order = sorted(parsed)
        table = np.column_stack([parsed[j] for j in in_file_order])
        i, k = divmod(int(np.flatnonzero(np.isinf(table))[0]), table.shape[1])
        line_no = i + 2
        for blank in blank_lines:   # each skipped line before row i shifts it
            line_no += blank <= line_no
        raise DatasetError(
            f"{path}: line {line_no}, column "
            f"{header[in_file_order[k]]!r}: cell value "
            f"{float(table[i, k])!r} is not finite")
    return Dataset(
        name=name if name is not None else str(path),
        version=version,
        attributes=tuple(attributes),
        values=values,
        labels=label_values,
        effort=effort,
        metadata=metadata)


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
    """Apply a label rule, turning raw numeric labels into booleans."""
    if ds.binary:
        raise DatasetError(f"{ds.name}: labels are already binary")
    raw = ds.labels
    if np.isnan(raw).any():
        bad = int(np.flatnonzero(np.isnan(raw))[0])
        raise DatasetError(f"{ds.name}: row {bad + 1} has a missing label")
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
