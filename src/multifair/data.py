"""Tabular dataset loading, binarization, and deterministic splitting.

A :class:`Dataset` is the single source of truth for rows, labels, and
column encodings.  CSV ingestion one-hot encodes text columns in
first-appearance order so that reloading the same file always yields the
same matrix, and rejects missing or non-finite numeric cells instead of
imputing them.
"""

from __future__ import annotations

import csv
import itertools
import math
import os
from collections import defaultdict
from dataclasses import dataclass, replace
from functools import cached_property, partial

import numpy as np

from .errors import ConfigError, DataError, DegenerateAttributeError, check_fields


def _read_only(array: np.ndarray) -> np.ndarray:
    """A read-only view of ``array``, which itself stays writable."""
    view = array.view()
    view.setflags(write=False)
    return view


def _constant_columns(features: np.ndarray) -> np.ndarray:
    """Mask of the exactly constant columns: every row equals the first.
    For finite features this is ``np.ptp(features, axis=0) == 0`` (0.0 and
    -0.0 are equal), without ptp's strided max and min passes."""
    return (features == features[0]).all(axis=0)


def _row_cells(features: np.ndarray, labels: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """:attr:`Dataset.cells` for a C-contiguous float64 ``features`` and
    int64 ``labels``.

    Rows are sorted on a float key, a fixed linear form of the row and its
    label, and each row is compared byte for byte with the next one.  Any
    key that gives equal rows equal keys yields the exact partition; a key
    that separates more rows only leaves fewer ties.  So the key is built
    elementwise, one column at a time (a BLAS product can round the same
    row differently at different positions), and stops after 16 columns
    when those already tell every row apart; the multipliers' scale keeps
    it finite for any finite row.  When tied keys hold different rows (0.0
    and -0.0 tie, and so can colliding keys), the rows are sorted on the
    key and then their bytes, a slower sort that puts equal rows next to
    each other.
    """
    n, d = features.shape
    r = np.random.default_rng(0).uniform(1.0, 2.0, d + 1) * 2.0 ** -((d + 1).bit_length() + 2)
    key = labels * r[d]
    for j in range(d):
        key += features[:, j] * r[j]
        if j == 15 and np.unique(key).shape[0] == n:
            break  # rows that differ in their first 16 columns are all distinct
    order = np.argsort(key)
    sorted_key = np.take(key, order)
    tie = sorted_key[1:] == sorted_key[:-1]
    if not tie.any():
        rows = np.arange(n)
        return rows, rows
    bits = features.view(np.uint64)

    def equal_to_next(order):
        rows, row_labels = np.take(bits, order, axis=0), np.take(labels, order)
        same = row_labels[1:] == row_labels[:-1]
        for j in range(d):
            same &= rows[1:, j] == rows[:-1, j]
        return same

    same = equal_to_next(order)
    if (tie & ~same).any():
        order = np.lexsort((*bits.T, labels, key))  # key first, then the bytes
        same = equal_to_next(order)
    starts = np.flatnonzero(np.concatenate(([True], ~same)))
    first, number = _by_first_row(np.minimum.reduceat(order, starts))
    cell = np.empty(n, dtype=np.intp)
    cell[order] = np.repeat(number, np.diff(np.append(starts, n)))
    return first, cell


def _by_first_row(lowest: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Groups renumbered by first appearance, given each group's lowest
    row: (the lowest rows, ascending; each group's new number)."""
    rank = np.argsort(lowest)
    number = np.empty_like(rank)
    number[rank] = np.arange(rank.shape[0])
    return np.take(lowest, rank), number


def _table_cells(table: "Dataset", rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """:func:`_row_cells` of ``table.take(rows)``, from ``table.cells``:
    two rows share a cell when their table rows do, and the cells present
    are renumbered by their first row."""
    table_first, table_cell = table.cells
    group = np.take(table_cell, rows)
    n = rows.shape[0]
    lowest = np.full(table_first.shape[0], n, dtype=np.intp)  # n: no row in that cell
    np.minimum.at(lowest, group, np.arange(n))
    first, number = _by_first_row(lowest)
    return first[:np.count_nonzero(lowest < n)], np.take(number, group)


@dataclass(frozen=True)
class Dataset:
    """Immutable numeric feature matrix with binary labels.

    features: (n_rows, n_cols) float64, no NaN/inf.
    labels: (n_rows,) values in {0, 1}, 1 being the favorable outcome.
    column_names: unique non-empty names, one per feature column.

    Features given as a C-contiguous float64 array are not copied: the
    dataset keeps a read-only view of that array, which stays writable to
    its owner.
    """

    features: np.ndarray
    labels: np.ndarray
    column_names: tuple[str, ...]

    def __post_init__(self):
        features = np.ascontiguousarray(np.asarray(self.features, dtype=np.float64))
        labels = np.asarray(self.labels)
        names = tuple(self.column_names)
        if features.ndim != 2:
            raise DataError("features must be a 2-D matrix")
        if features.shape[0] < 1 or features.shape[1] < 1:
            raise DataError("dataset must have at least one row and one column")
        if not np.isfinite(features).all():
            raise DataError("features contain NaN or infinite values")
        if labels.ndim != 1 or labels.shape[0] != features.shape[0]:
            raise DataError("labels must be one value per row")
        if not ((labels == 0) | (labels == 1)).all():
            raise DataError("labels must be exactly 0 or 1")
        if len(names) != features.shape[1]:
            raise DataError("column_names must name every feature column")
        if any(not isinstance(n, str) or not n for n in names):
            raise DataError("column names must be non-empty strings")
        if len(set(names)) != len(names):
            raise DataError("duplicate column names")
        object.__setattr__(self, "features", _read_only(features))
        object.__setattr__(self, "labels", _read_only(labels.astype(np.int64)))
        object.__setattr__(self, "column_names", names)

    @property
    def n_rows(self) -> int:
        return self.features.shape[0]

    @property
    def n_cols(self) -> int:
        return self.features.shape[1]

    # Computed once per dataset, where every fit on it would recompute them
    @cached_property
    def constant_columns(self) -> np.ndarray:
        """Read-only mask of the exactly constant feature columns."""
        # Every row has its cell's first row's bytes, and row 0 is the first
        # cell's: the cells' first rows have the same constant columns
        first = self.cells[0]
        features = self.features if first.shape[0] == self.n_rows else np.take(self.features, first, axis=0)
        return _read_only(_constant_columns(features))

    @cached_property
    def float_labels(self) -> np.ndarray:
        """Read-only labels as float64 0.0 and 1.0."""
        return _read_only(self.labels.astype(np.float64))

    @cached_property
    def cells(self) -> tuple[np.ndarray, np.ndarray]:
        """The rows grouped by exact (feature bytes, label) equality, as
        read-only ``(first, cell)``: ``first`` holds each cell's first row,
        ascending, and ``cell`` each row's index into ``first``.

        A dataset made by :meth:`_take_with_cells` has them from the
        dataset it was taken from, without sorting its own rows."""
        return tuple(map(_read_only, _row_cells(self.features, self.labels)))

    def column(self, name: str) -> np.ndarray:
        """Read-only view of one feature column."""
        return self.features[:, self._column_index(name)]

    def _column_index(self, name: str) -> int:
        try:
            return self.column_names.index(name)
        except ValueError:
            raise DataError(f"unknown column {name!r}") from None

    def take(self, rows: np.ndarray) -> "Dataset":
        """New Dataset restricted to the given row indices (order preserved).

        ``rows`` must hold integers in ``0..n_rows-1``; a boolean mask, a
        float index or an index out of range is a DataError.
        """
        rows = np.asarray(rows)
        # numpy would index some other rows with each of these
        if rows.dtype.kind not in "iu":
            raise DataError(f"rows must be integer row indices, got dtype {rows.dtype}")
        if rows.size and (rows.min() < 0 or rows.max() >= self.n_rows):
            raise DataError(f"row indices must lie in 0..{self.n_rows - 1}")
        return Dataset(self.features[rows], self.labels[rows], self.column_names)

    def _take_with_cells(self, rows: np.ndarray) -> "Dataset":
        """:meth:`take`, with the new dataset's :attr:`cells` filled from
        this dataset's, bit for bit what its own rows would give.  This
        dataset's rows are sorted before the copy is made: a sort of rows
        with tied keys copies them all."""
        self.cells  # computed and cached here, while no copy is alive
        taken = self.take(rows)
        vars(taken)["cells"] = tuple(map(_read_only, _table_cells(self, rows)))  # the cached_property's slot
        return taken


@dataclass(frozen=True)
class GroupAssignment:
    """Per-sample binary membership for one attribute.

    ``membership`` codes each row 0 or 1.  ``privileged_value`` names the
    code whose group the fairness metrics treat as privileged; it starts
    unset and is assigned via :func:`set_privileged`.
    """

    attribute_name: str
    membership: np.ndarray
    privileged_value: int | None = None

    def __post_init__(self):
        membership = np.asarray(self.membership)
        if membership.ndim != 1:
            raise DataError("membership must be a 1-D vector")
        if not ((membership == 0) | (membership == 1)).all():
            raise DataError("membership values must be 0 or 1")
        if self.privileged_value not in (None, 0, 1):
            raise DataError("privileged_value must be 0, 1, or None")
        object.__setattr__(self, "membership", _read_only(membership.astype(np.int8)))

    def __len__(self) -> int:
        return self.membership.shape[0]

    @property
    def privileged_mask(self) -> np.ndarray:
        if self.privileged_value is None:
            raise DataError(
                f"privileged side not set for attribute {self.attribute_name!r}"
            )
        return self.membership == self.privileged_value

    def unprivileged_indicator(self) -> np.ndarray:
        """1 for rows on the unprivileged side, 0 otherwise."""
        return (~self.privileged_mask).astype(np.int64)

    def with_privileged(self, value: int) -> "GroupAssignment":
        return replace(self, privileged_value=value)


@dataclass(frozen=True)
class SplitSpec:
    """Deterministic train/test partition parameters."""

    test_fraction: float = 0.2
    seed: int = 42

    def __post_init__(self):
        check_fields(self)
        if not 0.0 < self.test_fraction < 1.0:
            raise ConfigError("test_fraction must lie strictly between 0 and 1")
        if self.seed < 0:
            raise ConfigError("seed must be a non-negative integer")


def _parse_float(cell: str) -> float | None:
    try:
        return float(cell)
    except ValueError:
        return None


def load_csv(path, label_column: str, positive_label: str) -> Dataset:
    """Load a headered CSV file into a :class:`Dataset`.

    The label column must hold at most two distinct values, one of them
    ``positive_label`` (mapped to 1).  A column is numeric when every
    non-empty cell parses as a number (``float()``); it becomes one float
    feature.  Any other column is text and is one-hot encoded into
    ``name=value`` indicator columns, categories ordered by first
    appearance.  Cell whitespace is stripped, so comma-space separated
    files load cleanly.

    The first data row and the first 64 KiB of data lines pick one of
    three fast routes (see :func:`_load_loadtxt`): a file whose columns are
    all numeric but the label, unless most of those lines repeat, is parsed
    by orjson in blocks; another file whose lines repeat, with no quote,
    blank line or lone ``\r``, is parsed one distinct line each by
    ``np.loadtxt``; any other file by one ``np.loadtxt`` pass.  Files these
    cannot read exactly as the csv module does (ragged rows, empty or
    non-finite numeric cells, spellings only Python's ``float()`` accepts
    such as ``1_000``, a stray label value, two spellings of one category
    that differ only by padding, a line that is not UTF-8) take the
    csv-module path, which gives the same result and is the one source of
    the errors below.  It parses every cell in Python, so it costs time in
    proportion to the cells.

    Raises DataError for: duplicate or missing header names, row arity
    mismatches, empty or non-finite numeric cells, or a label value
    outside the declared positive/negative pair.

    The result is :func:`load_csv_table`'s table, expanded to every data
    line by one ``take`` when the file's lines repeat.
    """
    table, lines = load_csv_table(path, label_column, positive_label)
    return table if lines is None else table.take(lines)


def load_csv_table(path, label_column: str,
                   positive_label: str) -> tuple[Dataset, np.ndarray | None]:
    """:func:`load_csv` before its rows are expanded: ``(table, lines)``.

    When the route that parses each distinct line once read the file,
    ``table`` holds one row per distinct data line, in first-appearance
    order, and ``lines`` each data line's row in ``table``.  Two distinct
    lines can still parse to equal rows (``1`` and ``1.0``).  On every
    other route ``table`` has one row per data line and ``lines`` is None.
    :func:`split` takes both, so that the file's rows are never expanded,
    and the training side's cells come from the table's: a job sorts each
    distinct line's row once, not its data lines.
    """
    loaded = _load_loadtxt(path, label_column, positive_label)
    return (_load_rows(path, label_column, positive_label), None) if loaded is None else loaded


def _load_loadtxt(path, label_column: str,
                  positive_label: str) -> tuple[Dataset, np.ndarray | None] | None:
    """The fast routes of :func:`load_csv_table`, or None when the file
    must take the csv-module path.

    The csv module reads the header and the first data row, which decides
    the column kinds: a feature column is text when its first cell is
    non-empty and not a number.  Then :func:`_repeated_lines` probes the
    data lines, and the file takes the first route that fits it:

    - Every column but the label is numeric and at most half the probed
      lines repeat: the lines are read in binary blocks and orjson parses
      their numbers (:func:`_numeric_rows`).  A block it might read
      otherwise than ``float()`` sends the whole file to the one-pass
      route below.
    - Lines repeat, and none is blank or holds a quote or a lone ``\r``:
      loadtxt decodes and parses the distinct byte lines, one each, in
      first-appearance order, so every category gets the code it would get
      from the whole file; the table is built on the distinct lines, and
      each data line gets its index into them.  A line that is not UTF-8
      makes loadtxt raise, like any line it cannot read.
    - Otherwise one ``np.loadtxt`` pass parses the file.

    On the loadtxt routes each text or label column's converter is the
    bound ``__getitem__`` of a ``defaultdict`` over a float counter, a
    builtin that codes each distinct raw cell by first appearance inside
    loadtxt's C loop, with no Python frame per cell; the orjson route codes
    label cells with the same builtin.  When two raw spellings strip to one
    category the file takes the csv-module path, which merges them;
    otherwise each stripped category keeps its raw code, in
    first-appearance order.  Numeric cells go through numpy's C float
    parser or orjson's, which both round as ``float()`` does; the few
    spellings only ``float()`` reads make loadtxt raise, and so take the
    csv-module path.  So does a non-finite number, found among the parsed
    values before any text column is expanded to its 0/1 indicators.
    """
    # newline="" keeps line endings inside quoted cells as the csv module does
    with open(path, newline="", encoding="utf-8") as handle:
        reader = csv.reader(handle)
        try:
            header = [cell.strip() for cell in next(reader)]
            header_lines = reader.line_num
            first = next(row for row in reader if row)
        except (StopIteration, csv.Error, ValueError):
            return None
        if (len(header) < 2 or len(first) != len(header)
                or len(set(header)) != len(header) or label_column not in header):
            return None
        label_idx = header.index(label_column)
        tables = {
            j: defaultdict(itertools.count(0.0).__next__) for j, cell in enumerate(first)
            if j == label_idx or (cell.strip() != "" and _parse_float(cell) is None)
        }
        repeated = _repeated_lines(path, header_lines, len(tables) == 1)
        numeric = None
        if repeated is None and len(tables) == 1:  # every column but the label is numeric
            handle.seek(0)
            start = sum(len(handle.readline().encode()) for _ in range(header_lines))
            numeric = _numeric_rows(path, start, len(header), label_idx)
        if numeric is None:
            if repeated is None:
                handle.seek(0)
                source, skip = handle, header_lines
            else:
                source, inverse = repeated
                skip = 0
            try:
                values = np.loadtxt(
                    source, delimiter=",", quotechar='"', comments=None, encoding="utf-8",
                    ndmin=2, skiprows=skip,
                    converters={j: table.__getitem__ for j, table in tables.items()},
                )
            except ValueError:
                return None
            if repeated is not None and values.shape[0] != len(source):
                return None  # a line loadtxt skipped or split would misalign every later row
        else:
            values, label_codes, tables[label_idx] = numeric
    if not np.isfinite(values).all():
        return None

    for j, raw_codes in tables.items():
        tables[j] = {raw.strip(): code for raw, code in raw_codes.items()}
        if len(tables[j]) < len(raw_codes):
            return None  # two spellings of one category, which the csv-module path merges

    labels_seen = tables[label_idx]
    if len(labels_seen.keys() - {positive_label}) > 1:
        return None
    if numeric is None:
        blocks, names = [], []
        for j, name in enumerate(header):
            if j == label_idx:
                continue
            if j in tables:
                blocks.append(values[:, j, None] == np.arange(len(tables[j])))
                names.extend(f"{name}={category}" for category in tables[j])
            else:
                blocks.append(values[:, j, None])
                names.append(name)
        features = np.concatenate(blocks, axis=1, dtype=np.float64)
        label_codes = values[:, label_idx]
    else:
        features, names = values, header[:label_idx] + header[label_idx + 1:]
    labels = label_codes == labels_seen.get(positive_label, -1)
    return Dataset(features, labels, tuple(names)), None if repeated is None else inverse


# How many bytes of a CSV's data lines are read to decide whether lines repeat
_PROBE_BYTES = 1 << 16


def _repeated_lines(path, header_lines: int,
                    all_numeric: bool) -> tuple[list[bytes], np.ndarray] | None:
    """The data lines of ``path`` after its ``header_lines`` as (each
    distinct line once, in first-appearance order; each line's index into
    them), or None when parsing every line is as cheap or the lines cannot
    be keyed, and the file is parsed whole.

    Only the first ``_PROBE_BYTES`` of data lines are read to decide.  When
    none of them repeats, the file is taken to have no repeats worth
    keying.  A file whose columns are all numeric but the label is keyed
    only when most of them repeat: orjson parsed every line of 5000 rows
    of 7 numbers in about the time loadtxt took for half of them, and of
    4000 rows of 201 numbers in less than for a quarter.

    The lines are read, keyed and returned as bytes: loadtxt decodes only
    the distinct ones, and a line that is not UTF-8 makes it raise, so
    that the file takes the csv-module path, which raises the error.  A
    byte line ends at ``\n`` only, where the csv module and loadtxt also
    end a line at a lone ``\r``, so a file with a lone ``\r`` in its
    header or its lines is parsed whole.  A quote may open a cell that
    spans lines, and loadtxt skips a blank line where the line index would
    still count it, so a file with either in its data lines is parsed
    whole.
    """
    with open(path, "rb") as raw:
        head = [raw.readline() for _ in range(header_lines)]
        lines = raw.readlines(_PROBE_BYTES)
        if len(dict.fromkeys(lines)) * (2 if all_numeric else 1) >= len(lines):
            return None
        # a builtin default factory numbers each new line without a Python
        # frame; the lines past the probe are read one at a time, so that
        # only the distinct ones stay in memory
        index = defaultdict(itertools.count().__next__)
        inverse = np.fromiter(map(index.__getitem__, itertools.chain(lines, raw)), np.intp)
    # every line is one of the distinct lines, and only the file's last line,
    # which comes last here, can end without \n: a lone \r shows in their join
    distinct = b"".join(index)
    if (_lone_cr(b"".join(head) + distinct) or b'"' in distinct
            or b"\n" in index or b"\r\n" in index):
        return None
    return list(index), inverse


def _lone_cr(data: bytes) -> bool:
    """Whether ``data`` holds a ``\r`` that does not start a ``\r\n``."""
    return data.count(b"\r") != data.count(b"\r\n")


# How much of an all-numeric CSV is parsed at a time.  A block is held in
# a few copies and as one Python float per cell while it is parsed, and the
# allocator keeps that memory after the load.  On a 4000 x 202 file (16 MB)
# 128 KiB blocks raised a detect run's peak memory by about 2 MB over the
# loadtxt route and 1 MiB blocks by about 8 MB, for a parse under 10% faster
_BLOCK_BYTES = 1 << 17


def _numeric_rows(path, start: int, n_cols: int,
                  label_idx: int) -> tuple[np.ndarray, np.ndarray, dict] | None:
    """The data lines of an all-numeric file from byte ``start`` on, as
    (features, label codes, label table), or None when some block of them
    is not plain enough for :func:`_numeric_block`.

    The lines are counted first, so each block's rows go straight to their
    place in the result; collecting the blocks and joining them would hold
    every row twice.
    """
    table = defaultdict(itertools.count(0.0).__next__)
    with open(path, "rb") as handle:
        handle.seek(start)
        n = sum(np.count_nonzero(np.frombuffer(block, np.uint8) == ord("\n"))
                for block in iter(partial(handle.read, _BLOCK_BYTES), b""))
        handle.seek(-1, os.SEEK_END)
        n += handle.read(1) != b"\n"  # a last line with no line end
        features, codes = np.empty((n, n_cols - 1)), np.empty(n)
        row = 0
        handle.seek(start)
        while block := handle.read(_BLOCK_BYTES):
            part = _numeric_block(block + handle.readline(), n_cols, label_idx, table)
            if part is None:
                return None
            end = row + part[1].shape[0]
            if end > n:
                return None  # the file grew since its lines were counted
            features[row:end], codes[row:end] = part
            row = end
    if row < n:
        return None  # the file shrank since its lines were counted
    return features, codes, {raw.decode(): code for raw, code in table.items()}


def _numeric_block(block: bytes, n_cols: int, label_idx: int,
                   table: dict) -> tuple[np.ndarray, np.ndarray] | None:
    """Whole data lines of an all-numeric file as (features, label codes),
    or None when orjson might read them otherwise than the csv module and
    ``float()`` do.

    The block must be ASCII with no quote and no ``\\r`` outside a
    ``\\r\\n``, and every line must hold ``n_cols - 1`` commas.  Each
    label cell is coded through ``table`` and blanked to spaces with the
    comma that joins it to its row, the rows are joined by commas into one
    JSON array, and orjson parses that with correctly rounded numbers.
    The array must hold no ``t``, ``f``, ``n``, ``{`` or inner ``[``, which
    could start a JSON value that is not a number, and must parse to one
    number per cell.  An integer token ``-0``, which orjson reads as int 0
    where ``float()`` gives -0.0, returns None; the bytes are searched for
    it only when orjson returned an integer zero.
    """
    # imported here: it adds about 6.5 ms to start-up, and files with a
    # text column never need it
    import orjson

    if not block.isascii() or b'"' in block:
        return None
    raw = np.frombuffer(block, np.uint8)
    newlines = (raw == ord("\n")).nonzero()[0]
    ends = newlines if block.endswith(b"\n") else np.append(newlines, len(block))
    n = ends.shape[0]
    commas = (raw == ord(",")).nonzero()[0]
    if commas.shape[0] != n * (n_cols - 1):
        return None
    commas = commas.reshape(n, n_cols - 1)
    if not ((commas[1:, 0] > ends[:-1]).all() and (commas[:, -1] < ends).all()):
        return None  # as many commas as the block needs, but not on every line
    # no line is empty, so every newline follows a byte of its line
    if b"\r" in block and (np.count_nonzero(raw == ord("\r"))
                           != np.count_nonzero(raw[newlines - 1] == ord("\r"))):
        return None  # a lone \r, which ends a line for the csv module
    if label_idx < n_cols - 1:
        cell_start = (np.append(0, ends[:-1] + 1) if label_idx == 0
                      else commas[:, label_idx - 1] + 1)
        cell_end = commas[:, label_idx]
        blank_start, blank_end = cell_start, cell_end + 1
    else:
        cell_start = commas[:, -1] + 1
        cell_end = ends - (raw[ends - 1] == ord("\r"))
        blank_start, blank_end = cell_start - 1, cell_end
    cells = map(block.__getitem__, map(slice, cell_start.tolist(), cell_end.tolist()))
    codes = np.fromiter(map(table.__getitem__, cells), np.float64, n)

    json = bytearray(len(block) + 2)
    array = np.frombuffer(json, np.uint8)
    array[0], array[1:-1], array[-1] = ord("["), raw, ord("]")
    lengths = blank_end - blank_start
    blanks = (blank_start - lengths.cumsum() + lengths).repeat(lengths)
    array[1 + blanks + np.arange(blanks.shape[0])] = ord(" ")
    array[1 + ends[:-1]] = ord(",")
    # the block holds no quote, and orjson rejects every byte its grammar has
    # no place for: only true, false, null, an object or an inner array would
    # parse to a value that is not a number
    if any(map(json.__contains__, b"tfn{")) or json.find(b"[", 1) >= 0:
        return None
    try:
        values = np.fromiter(tokens := orjson.loads(json), np.float64)
    except orjson.JSONDecodeError:
        return None
    if values.shape[0] != n * (n_cols - 1):
        return None
    # only an integer zero can be -0: orjson reads -0.0, -0e0 and -0E-5 as -0.0
    if int in map(type, map(tokens.__getitem__, (values == 0).nonzero()[0].tolist())):
        minus_zero = array[:-2] == ord("-")
        minus_zero &= array[1:-1] == ord("0")
        after = array[2:][minus_zero]  # a separator ends the token; '.', 'e' and digits do not
        if ((after < ord(".")) | (after == ord("]"))).any():
            return None
    return values.reshape(n, n_cols - 1), codes


def _load_rows(path, label_column: str, positive_label: str) -> Dataset:
    """The csv-module path of :func:`load_csv`: the csv module and
    ``float()`` on every cell, for every file and with every error the
    docstring there names.  A text column's categories are its distinct
    cells in first-appearance order, and its indicators one comparison of
    its category codes with each code."""
    with open(path, newline="", encoding="utf-8") as handle:
        reader = csv.reader(handle)
        try:
            header = [cell.strip() for cell in next(reader)]
        except StopIteration:
            raise DataError(f"{path}: empty file") from None
        rows = []
        for lineno, raw in enumerate(reader, start=2):
            if not raw:
                continue  # blank line
            if len(raw) != len(header):
                raise DataError(
                    f"{path}:{lineno}: expected {len(header)} fields, got {len(raw)}"
                )
            rows.append([cell.strip() for cell in raw])

    if len(set(header)) != len(header):
        raise DataError(f"{path}: duplicate column names in header")
    if label_column not in header:
        raise DataError(f"{path}: label column {label_column!r} not in header")
    if not rows:
        raise DataError(f"{path}: no data rows")

    label_idx = header.index(label_column)
    columns = list(zip(*rows))
    label_values = columns[label_idx]
    others = set(label_values) - {positive_label}
    if len(others) > 1:
        raise DataError(
            f"{path}: label value outside declared pair: expected {positive_label!r} "
            f"plus one other value, found {sorted(others)}"
        )
    labels = np.array([v == positive_label for v in label_values])

    blocks: list[np.ndarray] = []
    names: list[str] = []
    for j, (name, cells) in enumerate(zip(header, columns)):
        if j == label_idx:
            continue
        parsed = list(map(_parse_float, cells))
        if all(p is not None for c, p in zip(cells, parsed) if c != ""):  # numeric
            values = np.array(parsed, dtype=np.float64)  # an empty cell reads nan
            bad = np.flatnonzero(~np.isfinite(values))
            if bad.size:  # the first empty or non-finite cell
                i = int(bad[0])
                if cells[i] == "":
                    raise DataError(f"{path}: missing numeric value in column {name!r}, data row {i + 1}")
                raise DataError(
                    f"{path}: non-finite numeric value {cells[i]!r} in column {name!r}, data row {i + 1}"
                )
            blocks.append(values[:, None])
            names.append(name)
        else:
            categories = {c: k for k, c in enumerate(dict.fromkeys(cells))}
            codes = np.fromiter(map(categories.__getitem__, cells), np.intp, len(cells))
            blocks.append(codes[:, None] == np.arange(len(categories)))
            names.extend(f"{name}={c}" for c in categories)

    if not blocks:
        raise DataError(f"{path}: no feature columns besides the label")
    return Dataset(np.concatenate(blocks, axis=1, dtype=np.float64), labels, tuple(names))


def save_csv(dataset: Dataset, path, label_column: str = "label",
             positive_label: str = "1", negative_label: str = "0") -> None:
    """Write a Dataset back out as a headered CSV (inverse of load_csv for
    all-numeric data)."""
    with open(path, "w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle)
        writer.writerow(list(dataset.column_names) + [label_column])
        for i in range(dataset.n_rows):
            row = [repr(float(v)) for v in dataset.features[i]]
            row.append(positive_label if dataset.labels[i] == 1 else negative_label)
            writer.writerow(row)


def binarize_by_threshold(dataset: Dataset, column: str, threshold: float) -> GroupAssignment:
    """Group rows by whether ``column`` strictly exceeds ``threshold``."""
    return _threshold_group(column, threshold, dataset.column(column) > threshold)


def _threshold_group(column: str, threshold: float, above: np.ndarray) -> GroupAssignment:
    """The group of rows ``above`` ``column``'s ``threshold``, unless every
    row or none is, which leaves one side empty."""
    if above.all() or not above.any():
        raise DegenerateAttributeError(
            f"degenerate attribute {column!r}: threshold {threshold!r} leaves one group empty"
        )
    return GroupAssignment(column, above.astype(np.int8))


def _above_train_means(train: Dataset, columns, *others: Dataset) -> tuple[list[float], list[np.ndarray]]:
    """The one place that splits columns at their training means, for
    ``run``, ``grid``, ``weights`` and ``detect``: each of the k
    ``columns``' mean on ``train``, and for ``train`` and each of
    ``others`` the k x n matrix of its rows strictly above those means.

    The k columns are gathered as contiguous rows by one fancy index, so
    each mean sums in the same order as the column's alone: bit for bit
    ``float(train.column(name).mean())``.  A column whose finite values sum
    past the largest double gets its mean in scaled form, as in
    ``model._design``; every other mean keeps its bits."""
    gathered = [data.features.T[[data._column_index(name) for name in columns]] for data in (train, *others)]
    with np.errstate(over="ignore", invalid="ignore"):
        means = gathered[0].mean(axis=1, keepdims=True)
    huge = ~np.isfinite(means[:, 0])
    if huge.any():
        # The mean of x / m, m = max |x|, scaled back by m: it lies within
        # [-m, m], so it does not overflow
        m = np.abs(gathered[0][huge]).max(axis=1, keepdims=True)
        means[huge] = m * (gathered[0][huge] / m).mean(axis=1, keepdims=True)
    return means.ravel().tolist(), [values > means for values in gathered]


def binarize_by_mean(dataset: Dataset, column: str) -> GroupAssignment:
    """Binarize a numeric column against its own mean (strictly greater -> 1).

    Constant columns cannot be split and raise DegenerateAttributeError.
    The privileged side is left unset; see :func:`set_privileged`.

    A column whose sum overflows gets its mean in scaled form, as in
    :func:`_above_train_means`, but computed here on the column alone, so
    that the tests can check that kernel against this function.
    """
    values = dataset.column(column)
    with np.errstate(over="ignore", invalid="ignore"):
        mean = values.mean()
    if not np.isfinite(mean):
        # The mean of x / m, m = max |x|, scaled back by m: it lies within
        # [-m, m], so it does not overflow
        m = np.abs(values).max()
        mean = m * (values / m).mean()
    return binarize_by_threshold(dataset, column, float(mean))


def privileged_side(label_counts: np.ndarray) -> np.ndarray:
    """The privileged side, 0 or 1, of each ``label_counts[..., side,
    label]``: the side with the higher favorable-label base rate, taken as
    ``positives / rows`` in doubles, ties going to side 1."""
    base_rate = label_counts[..., 1] / label_counts.sum(axis=-1)
    return (base_rate[..., 1] >= base_rate[..., 0]).astype(np.intp)


def set_privileged(group: GroupAssignment, dataset: Dataset) -> GroupAssignment:
    """Mark as privileged the group code with the higher favorable-label
    base rate, breaking ties toward code 1 (see :func:`privileged_side`)."""
    if len(group) != dataset.n_rows:
        raise DataError("group assignment not row-aligned with the dataset")
    counts = np.bincount(2 * group.membership + dataset.labels, minlength=4).reshape(2, 2)
    if not counts.any(axis=1).all():
        raise DataError(
            f"attribute {group.attribute_name!r}: both groups must be non-empty"
        )
    return group.with_privileged(int(privileged_side(counts)))


def split(dataset: Dataset, spec: SplitSpec,
          lines: np.ndarray | None = None) -> tuple[Dataset, Dataset]:
    """Deterministic shuffled (train, test) partition.

    The test side gets floor(n_rows * test_fraction) rows, never fewer
    than one.  The same spec always produces the same partition.

    Given :func:`load_csv_table`'s ``(table, lines)``, it splits
    ``table.take(lines)`` without building it: each side takes its rows
    straight from the table.

    The training side gets its :attr:`Dataset.cells` from ``dataset``'s,
    bit for bit what its own rows would give, so a split of that side
    sorts no rows either.  So every split sorts all of ``dataset``'s rows
    once, unless its cells are cached already, even when no one reads the
    training side's cells.  The test side sorts its own when they are read.
    """
    n = dataset.n_rows if lines is None else lines.shape[0]
    if n < 2:
        raise DataError("need at least 2 rows to split")
    n_test = max(1, math.floor(n * spec.test_fraction))
    if n_test >= n:
        raise DataError("degenerate fraction: split would empty the training side")
    # each side's rows in ascending order, marked rather than sorted
    test = np.zeros(n, dtype=bool)
    test[np.random.default_rng(spec.seed).permutation(n)[:n_test]] = True
    test_rows, train_rows = np.flatnonzero(test), np.flatnonzero(~test)
    if lines is not None:
        test_rows, train_rows = np.take(lines, test_rows), np.take(lines, train_rows)
    return dataset._take_with_cells(train_rows), dataset.take(test_rows)
