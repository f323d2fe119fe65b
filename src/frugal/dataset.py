"""Tabular data model and CSV ingestion.

A :class:`Dataset` is an immutable named table of numeric attribute columns,
one label column (raw counts/days before binarization, booleans after) and an
optional per-row effort column (e.g. lines of code).  Missing numeric cells
are stored as NaN; downstream code treats NaN as "never matches".

``load_csv`` reads a file (a leading UTF-8 BOM is skipped) in chunks of lines.
A numeric cell is whatever Python's ``float()`` accepts, after stripping the
whitespace around it, or a missing marker (``?`` or empty).  ``np.loadtxt``
parses each clean chunk: one with no quote, NUL or bare carriage return, one
comma per header column but the first on every line, no line past the csv
field limit, every effort above 0, and only cells that ``loadtxt`` reads as
``float()`` does (a leading ``?`` in a cell maps to ``nan``).  From the first
chunk that is not clean, the rest of the file goes through ``csv.reader`` and
is parsed column by column with ``float()``.  Infinite cells are found on the
parsed columns, whichever parser made them.  Only a chunk that breaks another
rule is checked again row by row, so an error names the first bad line and
column, for a pipe as well as for a file.  Columns with a blank header are
skipped.

``save_csv`` writes blocks of ``_WRITE_ROWS`` rows, each formatted in one
go and written with one ``csv.writer.writerows`` call, so a row name that
holds a comma, quote or line feed is quoted (a bare carriage return is
not).  A missing cell is written ``?``, an integral value as an integer
(``-0.0`` as ``0``, ``1e300`` with all its digits) and any other value as
its shortest ``repr`` (``0.1``, ``5e-324``).  A binary label is ``0`` or
``1``.
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass, replace
from itertools import chain, compress, islice

import numpy as np

from .errors import DatasetError

MISSING_MARKERS = ("", "?")
# A bare marker cell is read as float("nan").
_MISSING = dict.fromkeys(MISSING_MARKERS, "nan")
# Rows parsed per chunk.  Every cell string of a chunk is alive while its
# columns are parsed, so the chunk bounds the memory a load needs on top of
# its result.
_CHUNK_ROWS = 4096
# Rows written per block by save_csv.  A block's cells are live at once as
# Python objects, so it is kept small: writing three releases of 20,000 to
# 28,000 rows peaked 3 MB higher at 4096 rows than at 512, and 128 rows gave
# back about half of the time saved.
_WRITE_ROWS = 512

# Columns that identify rows (class name, version string) rather than measure
# them.  Matched by header name, so duplicated headers are covered too.
DEFAULT_EXCLUDE = ("name", "version")

_COMPARE = {"<": np.less, ">": np.greater}


@dataclass(frozen=True)
class LabelRule:
    """How a raw numeric label column becomes a boolean target: a row is
    positive when its label compares ``op`` ("<" or ">") to ``threshold``.
    The default, ``> 0``, marks a row with any defects; ``< 30`` marks an
    issue closed within 30 days.
    """

    op: str = ">"
    threshold: float = 0.0

    def __post_init__(self):
        if self.op not in _COMPARE:
            raise DatasetError(f"bad label rule op: {self.op!r}")

    @classmethod
    def bug_counts(cls) -> "LabelRule":
        return cls()


def _freeze(arr: np.ndarray) -> np.ndarray:
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True)
class Dataset:
    """Immutable table: attribute matrix, labels, optional effort.

    ``values`` has shape (rows, attributes) and is stored C-contiguous
    whatever the layout it is given in, so every reader sees one layout;
    NaN marks a missing cell.
    No two attributes share a name.
    ``labels`` is a float array before binarization and a bool array after.
    ``effort`` values must be > 0 when present, with a finite total.
    ``row_names`` is set only by ``synth.make_version`` and read only by
    ``save_csv``, which writes it as a leading ``name`` column; no load,
    subset, merge or projection carries it.
    """

    name: str
    version: str
    attributes: tuple[str, ...]
    values: np.ndarray
    labels: np.ndarray
    effort: np.ndarray | None = None
    row_names: tuple[str, ...] = ()

    def __post_init__(self):
        values = np.ascontiguousarray(self.values, dtype=float)
        labels = np.asarray(self.labels)
        effort = (None if self.effort is None
                  else np.asarray(self.effort, dtype=float))
        for field, arr, ndim in (("values", values, 2), ("labels", labels, 1),
                                 ("effort", effort, 1)):
            if arr is not None and arr.ndim != ndim:
                raise DatasetError(f"{self.name}: {field} must be {ndim}-D, "
                                   f"got shape {arr.shape}")
        if values.shape[1] != len(self.attributes):
            raise DatasetError(
                f"{self.name}: rows have {values.shape[1]} values for "
                f"{len(self.attributes)} attributes")
        if len(set(self.attributes)) != len(self.attributes):
            dupes = sorted({a for a in self.attributes
                            if self.attributes.count(a) > 1})
            raise DatasetError(f"{self.name}: repeated attribute names "
                               f"{dupes}")
        if labels.dtype != bool:
            labels = labels.astype(float)
        if len(labels) != values.shape[0]:
            raise DatasetError(f"{self.name}: {len(labels)} labels for "
                               f"{values.shape[0]} rows")
        if effort is not None:
            if len(effort) != values.shape[0]:
                raise DatasetError(f"{self.name}: effort length mismatch")
            if not np.all(effort > 0):
                bad = int(np.flatnonzero(~(effort > 0))[0])
                raise DatasetError(
                    f"{self.name}: effort must be > 0 (row {bad + 1} "
                    f"has {effort[bad]!r})")
            with np.errstate(over="ignore"):
                if np.isinf(effort.sum()):
                    raise DatasetError(f"{self.name}: effort total overflows;"
                                       " rescale the effort column")
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
            effort=None if self.effort is None else self.effort[idx])


def _floats(cells, n: int) -> np.ndarray:
    return np.fromiter(map(float, map(_MISSING.get, cells, cells)), float,
                       count=n)


def _parse_column(cells, n: int) -> np.ndarray | None:
    """The floats of a column's cells, or None when a cell is neither a
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


def _csv_rows(reader, path):
    try:
        yield from reader
    except (UnicodeDecodeError, csv.Error) as exc:
        raise DatasetError(f"{path}: not a readable UTF-8 CSV ({exc})") from exc


def _first_lines(records, start: int) -> list[int]:
    """The line each record starts on, the first on ``start``: a record
    spans one line plus one per line break in its quoted cells."""
    lines = []
    for cells in records:
        lines.append(start)
        start += 1 + sum(c.count("\n") + c.count("\r") - c.count("\r\n")
                         for c in cells)
    return lines


def _check_rows(rows, lines, path, header, numeric: list[int],
                effort_idx: int | None):
    """Raise the first error of ``rows`` (on ``lines``): a ragged row, a bad
    cell (in ``numeric`` order: attributes, label, effort; read by the chunk
    parse's ``_parse_column``) or a bad effort."""
    for line, cells in zip(lines, rows):
        if len(cells) != len(header):
            raise DatasetError(f"{path}: line {line} has {len(cells)} cells, "
                               f"header has {len(header)}")
        for j in numeric:
            parsed = _parse_column((cells[j],), 1)
            if parsed is None:
                raise DatasetError(
                    f"{path}: line {line}, column {header[j]!r}: cell "
                    f"{cells[j].strip()!r} is neither numeric nor a missing "
                    f"marker")
        if effort_idx is not None and not parsed[0] > 0:
            raise DatasetError(
                f"{path}: line {line}, column {header[effort_idx]!r}: "
                f"effort must be a positive number, got "
                f"{cells[effort_idx].strip()!r}")


def _parse_rows(reader, first: int, path, header, numeric: list[int],
                effort_idx: int | None):
    """Yield the first line of each row and the (rows, len(numeric)) float
    table of each chunk of a csv reader's records, the reader's first line
    being line ``first``.  Blank rows are skipped.  A chunk that breaks a
    rule (a read error, a ragged row, a bad cell, an effort not > 0) is
    checked again row by row, which raises the first error."""
    records = _csv_rows(reader, path)
    rejected = f"{path}: the chunk parse rejected rows the row check accepts"
    while True:
        read = reader.line_num
        chunk, read_error = [], None
        try:
            chunk.extend(islice(records, _CHUNK_ROWS))
        except DatasetError as exc:    # the rows read before it come first
            read_error = exc
        # each record is one line unless the chunk spans more lines
        firsts = (range(first + read, first + read + len(chunk))
                  if reader.line_num - read <= len(chunk)
                  else _first_lines(chunk, first + read))
        kept = [any(map(str.strip, cells)) for cells in chunk]  # not blank
        rows = list(compress(chunk, kept))
        lines = list(compress(firsts, kept))
        if read_error or set(map(len, rows)) - {len(header)}:
            _check_rows(rows, lines, path, header, numeric, effort_idx)
            raise read_error or RuntimeError(rejected)
        if not chunk:
            return
        if not rows:
            continue
        cols = list(zip(*rows))
        del chunk, rows     # the column tuples hold the same cells
        parsed = [_parse_column(cols[j], len(lines)) for j in numeric]
        if (any(col is None for col in parsed)
                or (effort_idx is not None and not (parsed[-1] > 0).all())):
            _check_rows(zip(*cols), lines, path, header, numeric, effort_idx)
            raise RuntimeError(rejected)
        yield lines, np.column_stack(parsed)


def _loadtxt_block(lines: list[str], header, usecols: list[int],
                   effort_idx: int | None) -> np.ndarray | None:
    """The float table ``np.loadtxt`` parses from ``lines``, or None when
    they are not clean (see the module docstring) and the csv path must
    read them.  ``loadtxt`` refuses what only ``float()`` or the missing
    markers accept (``1_0``, ``１``, empty or whitespace-only cells)."""
    text = "".join(lines)
    if "\r" in text:                        # CRLF ends read as LF ends
        text = text.replace("\r\n", "\n")
    commas = len(header) - 1
    # csv rejects a cell past its field limit (and on Python 3.10 a NUL);
    # loadtxt, given usecols, takes ragged rows
    if ('"' in text or "\0" in text or "\r" in text
            or max(map(len, lines)) > csv.field_size_limit()
            or any(line.count(",") != commas for line in lines)):
        return None
    # With a comma before each line every cell follows one, so a cell that
    # starts with ? reads as nan and its rest, which loadtxt takes only when
    # the rest is whitespace: a (padded) marker, as the csv path reads it.
    fenced = ("," + text.replace("\n", "\n,")).replace(",?", ",nan")
    try:
        block = np.loadtxt(io.StringIO(fenced.removesuffix("\n,")),
                           delimiter=",", comments=None, quotechar=None,
                           usecols=usecols, ndmin=2, dtype=float)
    except ValueError:
        return None
    # no line is empty once fenced, so loadtxt skips none; a guard against
    # one that splits lines where the file reader does not
    if len(block) != len(lines) or (effort_idx is not None
                                    and not (block[:, -1] > 0).all()):
        return None
    return block


def _then_raise(lines, exc):
    """``lines``, then the read error that cut them short."""
    yield from lines
    raise exc


def _blocks(fh, line: int, path, header, numeric: list[int],
            effort_idx: int | None):
    """Yield the first line of each row and the (rows, len(numeric)) float
    table of each chunk of ``fh``'s lines, the first being line ``line``.
    ``np.loadtxt`` parses each clean chunk.  The first chunk that is not
    clean and the rest of the file go to the csv path (``_parse_rows``), as
    a quoted record may cross into the next chunk; so does a read error,
    after the lines read before it."""
    usecols = [j + 1 for j in numeric]      # past each line's leading comma
    while True:
        lines = []
        try:
            lines.extend(islice(fh, _CHUNK_ROWS))
        except UnicodeDecodeError as exc:
            rest = _then_raise(lines, exc)
        else:
            if not lines:
                return
            block = _loadtxt_block(lines, header, usecols, effort_idx)
            if block is not None:
                yield range(line, line + len(lines)), block
                line += len(lines)
                continue
            rest = chain(lines, fh)
        yield from _parse_rows(csv.reader(rest), line, path, header, numeric,
                               effort_idx)
        return


def _parse_body(fh, line: int, path, header, numeric: list[int],
                effort_idx: int | None) -> np.ndarray:
    """The (rows, len(numeric)) float table of ``fh``'s lines past the
    header (``_blocks``).  The first infinite cell is raised when every
    chunk passes."""
    tables = [np.empty((0, len(numeric)))]
    first_inf = None
    for lines, block in _blocks(fh, line, path, header, numeric, effort_idx):
        # per column: an isinf mask of the whole block raised peak memory
        if first_inf is None:
            first_inf = min(((lines[i], j, float(col[i]))
                             for j, col in zip(numeric, block.T)
                             for i in np.flatnonzero(np.isinf(col))[:1]),
                            default=None)
        tables.append(block)
    if first_inf is not None:
        line, j, x = first_inf
        raise DatasetError(f"{path}: line {line}, column {header[j]!r}: "
                           f"cell value {x!r} is not finite")
    return np.concatenate(tables)


def load_csv(path, label_column: str, effort_column: str | None = None,
             exclude=DEFAULT_EXCLUDE, name: str | None = None,
             attributes=None) -> Dataset:
    """Load one CSV into a Dataset.

    The first row is the header.  Columns named in ``exclude``, and those
    whose header is blank (as a trailing comma on every line makes), are
    skipped, unparsed; every other non-label, non-effort column must be
    numeric ("?", an empty cell or ``nan`` marks a missing value).  An
    infinite cell in any attribute, label or effort column is an error, and
    so is a label or effort name that heads more than one column, and so is
    one column named as both the label and the effort.

    ``attributes``, when given, names the attribute columns to keep, in the
    order the dataset will hold them.  Every other column is then skipped
    unparsed too, so a bad or infinite cell, or a repeated header, in a
    column outside them is not an error.  A name that is not an attribute
    column (absent, excluded, the label or the effort) is.  Ragged rows,
    blank rows and the label and effort rules apply to every row either way.
    """
    if effort_column is not None and effort_column == label_column:
        raise DatasetError(f"{path}: column {label_column!r} cannot be both "
                           "the label and the effort")
    try:
        fh = open(path, newline="", encoding="utf-8-sig")
    except OSError as exc:
        raise DatasetError(f"cannot read {path}: {exc}") from exc
    with fh:
        reader = csv.reader(fh)
        try:
            header = [h.strip() for h in next(_csv_rows(reader, path))]
        except StopIteration:
            raise DatasetError(f"{path}: empty file, no header row")
        for needed in (label_column, effort_column):
            if needed is not None and needed not in header:
                raise DatasetError(f"{path}: no column named {needed!r}")

        label_idx = header.index(label_column)
        effort_idx = header.index(effort_column) if effort_column else None
        attr_cols = [j for j, col in enumerate(header)
                     if j not in (label_idx, effort_idx) and col
                     and col not in exclude
                     and (attributes is None or col in attributes)]
        names = [header[j] for j in attr_cols]
        if len(set(names)) != len(names):
            dupes = sorted({a for a in names if names.count(a) > 1})
            raise DatasetError(f"{path}: duplicate attribute columns {dupes}")
        for needed in (label_column, effort_column):
            if header.count(needed) > 1:
                raise DatasetError(f"{path}: {header.count(needed)} columns "
                                   f"are named {needed!r}")
        if attributes is not None:
            for attr in attributes:
                if attr not in names:
                    why = ("is the label column" if attr == label_column
                           else "is the effort column" if attr == effort_column
                           else "is excluded" if attr in header
                           else "is not in the header")
                    raise DatasetError(f"{path}: attribute {attr!r} {why}")
            attr_cols = [attr_cols[names.index(attr)] for attr in attributes]

        numeric = attr_cols + [label_idx]
        if effort_idx is not None:  # last: _check_rows's effort rule reads it
            numeric.append(effort_idx)
        table = _parse_body(fh, reader.line_num + 1, path, header, numeric,
                            effort_idx)

    n_attr = len(attr_cols)
    return Dataset(
        name=name if name is not None else str(path),
        version="",
        attributes=tuple(header[j] for j in attr_cols),
        values=table[:, :n_attr],
        labels=table[:, n_attr].copy(),
        effort=table[:, n_attr + 1].copy() if effort_idx is not None else None)


def _block_cells(block: np.ndarray) -> np.ndarray:
    """``block``'s cells as ``save_csv`` writes them: NaN as ``?``, an
    integral value as a Python int (through int64 below 2**63 in
    magnitude) and any other value as a Python float, which ``csv``
    writes with ``repr``."""
    cells = block.astype(object)
    integral = block == np.trunc(block)         # False for NaN
    small = integral & (np.abs(block) < 2.0**63)
    cells[small] = block[small].astype(np.int64)
    big = integral & ~small
    cells[big] = np.frompyfunc(int, 1, 1)(block[big])
    cells[np.isnan(block)] = "?"
    return cells


def save_csv(ds: Dataset, path, label_column: str = "bug",
             effort_column: str | None = None):
    """Write a dataset to CSV: ``ds.row_names`` as a ``name`` column when
    there are any, the attributes, then the label.

    ``effort_column`` adds the effort vector as its own column; leave it
    None when effort already mirrors an attribute (e.g. loc).  An infinite
    cell, which ``load_csv`` would reject, is an error raised before the
    file is opened.  Rows are written ``_WRITE_ROWS`` at a time (see the
    module docstring for the cell format).
    """
    if effort_column is not None and ds.effort is None:
        raise DatasetError(f"{ds.name}: no effort vector to write")
    names = ["name"] if ds.row_names else []
    header = names + list(ds.attributes) + [label_column]
    columns = [*ds.values.T, ds.labels]
    if effort_column is not None:
        header.append(effort_column)
        columns.append(ds.effort)
    first_inf = min(((i, j) for j, col in enumerate(columns)
                     for i in np.flatnonzero(np.isinf(col))[:1]),
                    default=None)
    if first_inf is not None:
        i, j = first_inf
        raise DatasetError(
            f"{ds.name}: data row {i + 1}, column {header[len(names) + j]!r}:"
            f" cell value {float(columns[j][i])!r} is not finite")
    row_names = np.array(ds.row_names, dtype=object)
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        for lo in range(0, len(ds), _WRITE_ROWS):
            rows = slice(lo, lo + _WRITE_ROWS)
            cells = _block_cells(np.column_stack([col[rows]
                                                  for col in columns]))
            if names:
                cells = np.column_stack([row_names[rows], cells])
            writer.writerows(cells.tolist())


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
    return replace(ds, labels=_COMPARE[rule.op](raw, rule.threshold))


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
    return Dataset(
        name="+".join(names),
        version="+".join(ds.version for ds in versions if ds.version),
        attributes=first.attributes,
        values=np.vstack([ds.values for ds in versions]),
        labels=np.concatenate([ds.labels for ds in versions]),
        effort=(np.concatenate([ds.effort for ds in versions])
                if all(has_effort) else None))
