"""Typed-column tables, model-ready frames and the preprocessing chain.

A :class:`Table` is what a CSV holds: named typed columns (see
:class:`Column`) that may miss cells. A :class:`Frame` is what a model
takes: feature names, one read-only float64 matrix and an optional encoded
target. Both are immutable, so safe to share across threads.

The preprocessing chain, in pipeline order (``encode`` makes the frame):

    Table: load_csv -> drop_sparse_features -> impute -> encode
    Frame: split -> fit_scaler / apply_scaler

CSV conventions: RFC-4180-style, UTF-8 (a leading byte-order mark is
accepted), header row required, ``,`` delimiter, ``"`` quoting. The tokens
``""``, ``"NA"`` and ``"null"`` (case-sensitive) are read as missing. A cell
is a number iff Python's ``float()`` accepts it (so ``" 1.5"``, ``"1_000"``
and ``"+2"`` are numbers) and the value is finite; a column is numeric iff
all its cells are, except the one column a caller names categorical (the
target). A categorical level keeps its spelling (``"1_000"`` and ``"1000"``
are two). A duplicated or empty header name, or a categorical name that is
not in the header, is refused before any data row is read. A byte that is
not UTF-8 or a field past csv's size limit is a :class:`DataError` naming
its line.
``load_csv`` reads, ``encode`` fills and ``write_csv`` renders a block of
rows at a time, as many as fit the memory budget of :mod:`credo.budget`:
8,192 cells of text (a 17-digit float's ``str`` takes 67-68 bytes) or
65,536 floats. ``write_csv`` renders the processed splits and the synthetic
data under the same conventions, each float as its ``repr``; a float column
that repeats its values renders each bitwise-distinct value once.
"""

from __future__ import annotations

import csv
import io
import itertools
import re
from contextlib import closing
from dataclasses import dataclass
from typing import Literal

import numpy as np

from .bounds import Range, fault
from .budget import TEXT_CELL, block_rows
from .errors import DataError

# the bounds of `drop_sparse_features`' threshold and `split`'s train_fraction,
# which a run config's null_threshold and split.train_fraction declare too
NULL_THRESHOLD = Range(0, 1, open_low=True)
TRAIN_FRACTION = Range(0, 1, open_low=True, open_high=True)
ScalerMode = Literal["zscore", "minmax"]  # a run config adds "none", no scaling

NUMERIC = "numeric"
CATEGORICAL = "categorical"

MISSING_TOKENS = frozenset({"", "NA", "null"})
_AS_NAN = dict.fromkeys(MISSING_TOKENS, "nan")
_ESCAPED_BYTE = re.compile("[\udc80-\udcff]")  # a byte that surrogateescape kept


def _finite_floats(cells) -> np.ndarray | None:
    """The cells as float64 with NaN in missing slots; None if an observed
    cell is not a finite number. One ``float()`` pass."""
    try:
        values = np.array(list(map(float, map(_AS_NAN.get, cells, cells))))
    except ValueError:
        return None
    # a missing token reads as NaN; any other non-finite cell spelled a NaN
    # or an infinity
    odd = np.flatnonzero(~np.isfinite(values)).tolist()
    return values if MISSING_TOKENS.issuperset([cells[i] for i in odd]) else None


@dataclass(frozen=True)
class Column:
    """One typed column of a :class:`Table`.

    A numeric column's ``values`` are float64, NaN exactly where a cell is
    missing. A categorical column's ``values`` are int32 codes into
    ``levels``, its distinct spellings sorted, and -1 where a cell is
    missing. Arrays are treated as read-only by convention.
    """

    kind: str
    values: np.ndarray
    levels: tuple[str, ...] = ()

    def __post_init__(self):
        if self.kind not in (NUMERIC, CATEGORICAL):
            raise DataError(f"unknown column kind {self.kind!r}")

    @property
    def n_rows(self) -> int:
        return len(self.values)

    @property
    def missing_mask(self) -> np.ndarray:
        return np.isnan(self.values) if self.kind == NUMERIC else self.values < 0

    @property
    def null_fraction(self) -> float:
        return float(np.count_nonzero(self.missing_mask)) / self.n_rows


@dataclass(frozen=True)
class EncodedTarget:
    """Integer-encoded class labels with their original category names.

    ``class_names`` is sorted lexicographically and ``labels[i]`` indexes it.
    """

    labels: np.ndarray
    class_names: tuple[str, ...]

    def __post_init__(self):
        if len(self.class_names) < 2:
            raise DataError("target needs at least 2 classes")
        if list(self.class_names) != sorted(self.class_names):
            raise DataError("class_names must be sorted lexicographically")
        labels = np.asarray(self.labels)
        if labels.size and (labels.min() < 0 or labels.max() >= len(self.class_names)):
            raise DataError("label outside [0, n_classes)")

    @property
    def n_classes(self) -> int:
        return len(self.class_names)


def _check_names(names: tuple[str, ...], width: int) -> None:
    if len(names) != width:
        raise DataError(f"{len(names)} column names for {width} columns")
    if len(set(names)) != len(names):
        raise DataError("column names must be unique")
    if any(not name for name in names):
        raise DataError("column names must be non-empty")


@dataclass(frozen=True)
class Table:
    """Named typed columns, cells possibly missing, and no target."""

    column_names: tuple[str, ...]
    columns: tuple[Column, ...]
    n_rows: int

    def __post_init__(self):
        _check_names(self.column_names, len(self.columns))
        for name, col in zip(self.column_names, self.columns):
            if col.n_rows != self.n_rows:
                raise DataError(f"column {name!r} has {col.n_rows} rows, table has {self.n_rows}")

    @property
    def n_features(self) -> int:
        return len(self.columns)

    def column(self, name: str) -> Column:
        try:
            i = self.column_names.index(name)
        except ValueError:
            raise DataError(f"no column named {name!r}") from None
        return self.columns[i]

    def select_rows(self, idx: np.ndarray) -> "Table":
        columns = tuple(Column(c.kind, c.values[idx], c.levels) for c in self.columns)
        return Table(self.column_names, columns, len(idx))


@dataclass(frozen=True)
class Frame:
    """Feature names, an (n_rows, n_features) ``matrix`` and an optional
    encoded target. The frame keeps a read-only C-order float64 view of
    ``matrix`` (C order fixes the summation order of axis-0 reductions)
    and rejects a missing or non-finite cell."""

    column_names: tuple[str, ...]
    matrix: np.ndarray
    target: EncodedTarget | None = None

    def __post_init__(self):
        X = np.ascontiguousarray(self.matrix, dtype=np.float64)
        if X.ndim != 2:
            raise DataError("matrix must be 2-D")
        _check_names(self.column_names, X.shape[1])
        if not np.isfinite(X).all():
            raise DataError("feature matrix has missing or non-finite cells; impute before encoding")
        if self.target is not None and len(self.target.labels) != len(X):
            raise DataError("target length differs from n_rows")
        X = X.view()  # the caller's array keeps its own flags
        X.flags.writeable = False
        object.__setattr__(self, "matrix", X)

    @property
    def n_rows(self) -> int:
        return self.matrix.shape[0]

    @property
    def n_features(self) -> int:
        return self.matrix.shape[1]

    @property
    def labels(self) -> np.ndarray:
        if self.target is None:
            raise DataError("frame has no target")
        return self.target.labels

    def select_rows(self, idx: np.ndarray) -> "Frame":
        target = None
        if self.target is not None:
            target = EncodedTarget(self.target.labels[idx], self.target.class_names)
        return Frame(self.column_names, self.matrix[idx], target)


def numeric_frame(
    matrix: np.ndarray,
    names: list[str] | tuple[str, ...] | None = None,
    target: EncodedTarget | None = None,
    labels: np.ndarray | None = None,
    class_names: tuple[str, ...] | None = None,
) -> Frame:
    """Build a frame from a matrix, keeping a read-only view of it.

    Either pass a ready ``target`` or ``labels`` (with optional
    ``class_names``; defaults to ``c0..c{k-1}`` covering the labels).
    Every cell must be a finite number.
    """
    matrix = np.asarray(matrix, dtype=np.float64)
    if matrix.ndim != 2:
        raise DataError("matrix must be 2-D")
    if names is None:
        names = [f"x{i}" for i in range(matrix.shape[1])]
    if target is None and labels is not None:
        labels = np.asarray(labels, dtype=np.int64)
        if class_names is None:
            k = int(labels.max()) + 1 if labels.size else 2
            k = max(k, 2)
            class_names = tuple(f"c{i}" for i in range(k))
        target = EncodedTarget(labels, class_names)
    return Frame(tuple(names), matrix, target)


def _records(path: str):
    """The CSV records of ``path``, header first. A byte sequence that is
    not UTF-8, or a field past csv's size limit, is a DataError naming the
    line."""
    try:
        fh = open(path, newline="", encoding="utf-8-sig")
    except OSError as e:
        raise DataError(f"cannot read {path}: {e}") from e
    with fh:
        reader = csv.reader(fh)
        try:
            yield from reader
        except UnicodeDecodeError as e:
            raise DataError(f"{path}: line {_undecodable_line(path)}: not UTF-8 ({e.reason})") from e
        except csv.Error as e:
            raise DataError(f"{path}: line {reader.line_num}: {e}") from e


def _undecodable_line(path: str) -> int:
    """The number of the first line of ``path`` that is not UTF-8, counting
    lines as ``csv.reader`` does. The decoder fails a whole buffer at a
    time, so the line is found again here."""
    with open(path, newline="", encoding="utf-8-sig", errors="surrogateescape") as fh:
        return next(n for n, line in enumerate(fh, 1) if _ESCAPED_BYTE.search(line))


def _blocks(path: str, records, width: int):
    """The data rows of ``records`` in lists of ``block_rows(width,
    TEXT_CELL)``, blank lines skipped; a row of another width is a
    DataError."""
    size = block_rows(width, TEXT_CELL)
    block = []
    for i, row in enumerate(records, start=1):
        if not row:
            continue  # blank line
        if len(row) != width:
            raise DataError(f"{path}: data row {i}: expected {width} cells, got {len(row)}")
        block.append(row)
        if len(block) == size:
            yield block
            block = []
    if block:
        yield block


def _codes(spelling: dict, cells) -> np.ndarray:
    """``cells`` as int32 codes through ``spelling`` (cell -> code, the
    missing tokens -1), where each new cell first takes the next code."""
    new = set(cells).difference(spelling)
    spelling.update(zip(new, itertools.count(len(spelling) - len(MISSING_TOKENS))))
    return np.fromiter(map(spelling.__getitem__, cells), dtype=np.int32, count=len(cells))


def _joined_column(numeric: bool, chunks: list, spelling: dict) -> Column:
    """The column of a CSV column's chunks: float64 values, or codes in
    first-seen order, which become codes into the sorted levels."""
    if numeric:
        return Column(NUMERIC, np.concatenate(chunks))
    seen = [cell for cell, code in spelling.items() if code >= 0]  # in code order
    order = sorted(range(len(seen)), key=seen.__getitem__)
    recode = np.full(len(seen) + 1, -1, dtype=np.int32)  # code -1 reads the last entry
    recode[order] = np.arange(len(seen))
    return Column(CATEGORICAL, recode[np.concatenate(chunks)], tuple(seen[i] for i in order))


def load_csv(path: str, categorical: str | None = None) -> Table:
    """Load a CSV file, inferring numeric/categorical kinds per column.

    A column is numeric iff every non-missing cell parses as a finite
    number; the column named ``categorical`` is read as categorical
    whatever its cells. Raises :class:`DataError` on an empty file or
    ragged rows, and, before any data row is read, on a ``categorical``
    name that is not in the header or a duplicated or empty header name.

    The rows are read a block of text cells at a time, and each cell is
    parsed once, into a float64 chunk while its column is numeric
    so far, else into int32 codes. A column that turns categorical after
    its first block reads its earlier cells from the file again. So memory
    beyond the columns is one block, and the spellings of each categorical
    column.
    """
    with closing(_records(path)) as records:
        header = next(records, None)
        if header is None:
            raise DataError(f"{path}: empty file")
        if categorical is not None and categorical not in header:
            raise DataError(f"{path}: no column named {categorical!r}")
        width = len(header)
        _check_names(tuple(header), width)
        numeric = [name != categorical for name in header]
        chunks = [[] for _ in header]
        spellings = [dict.fromkeys(MISSING_TOKENS, -1) for _ in header]
        n_rows = 0
        for block in _blocks(path, records, width):
            cells_by_column = list(zip(*block))
            late = []
            for j, cells in enumerate(cells_by_column):
                if not numeric[j]:
                    continue
                values = _finite_floats(cells)
                if values is not None:
                    chunks[j].append(values)
                    continue
                chunks[j] = []
                numeric[j] = False
                late.append(j)
            if n_rows and late:  # code these columns' earlier rows, read again
                with closing(_records(path)) as again:
                    next(again)
                    n_blocks = n_rows // block_rows(width, TEXT_CELL)  # every earlier block is full
                    for earlier in itertools.islice(_blocks(path, again, width), n_blocks):
                        for j in late:
                            chunks[j].append(_codes(spellings[j], [row[j] for row in earlier]))
            for j, cells in enumerate(cells_by_column):
                if not numeric[j]:
                    chunks[j].append(_codes(spellings[j], cells))
            n_rows += len(block)
            del block, cells_by_column  # before the next block is read
    if not n_rows:
        raise DataError(f"{path}: no data rows")

    columns = []
    for is_numeric, spelling in zip(numeric, spellings):
        columns.append(_joined_column(is_numeric, chunks.pop(0), spelling))  # frees its chunks
    return Table(tuple(header), tuple(columns), n_rows)


def _quoted(cell: str) -> str:
    """``cell`` as csv.writer renders it within a row, quoted only if needed."""
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerow(["", cell])  # a lone "" renders as '""'
    return buf.getvalue()[1:-1]


def _few_values(column: np.ndarray):
    """``(distinct, texts)`` when at most half of the float64 ``column``'s
    values are distinct: the int64 bits of its distinct values, sorted, and
    each value's ``repr``. Otherwise None, since gathering the texts would
    cost more than it saves. Values are told apart by their bits, which
    keep ``-0.0`` apart from ``0.0``; a float ``np.unique`` would merge
    them."""
    ordered = np.sort(column.view(np.int64))  # np.unique hashes ints: several times slower
    new = ordered[1:] != ordered[:-1]
    if 2 * (1 + np.count_nonzero(new)) > len(column):
        return None
    distinct = np.concatenate([ordered[:1], ordered[1:][new]])
    return distinct, np.array(list(map(repr, distinct.view(np.float64).tolist())), dtype=object)


def write_csv(fh, header, X: np.ndarray, codes: np.ndarray, levels, missing=None) -> None:
    """Write a table to the text file ``fh``, a block of rows at a time.

    Row ``i`` is the float64 cells of ``X[i]`` as their ``repr`` (the text
    ``float()`` reads back exactly), then ``levels[c][codes[i, c]]`` for each
    column ``c`` of ``codes``. Whether a float column is few-valued (at most
    half of its values bitwise distinct) is decided once, over all its
    rows; such a column renders each distinct value once and gathers the
    texts like a level's, so a one-hot column costs two ``repr`` calls.
    Cells where the boolean ``missing`` (covering the leading columns of
    the row, codes included) is set are written as ``NA``. The header and
    the levels are quoted as csv.writer quotes them, once each.
    """
    csv.writer(fh, lineterminator="\n").writerow(header)
    d = X.shape[1]
    few = [_few_values(X[:, j]) for j in range(d)]
    plain = [j for j, values in enumerate(few) if values is None]  # rendered cell by cell
    words = [np.array([_quoted(w) for w in names], dtype=object) for names in levels]
    rows = block_rows(d + len(words), TEXT_CELL)
    for start in range(0, len(X), rows):
        block = slice(start, start + rows)
        plain_cells = iter(X[block, plain].T.tolist())  # one list per column, in one call
        columns = []
        for j, values in enumerate(few):
            if values is None:
                columns.append(list(map(repr, next(plain_cells))))
            else:
                distinct, texts = values
                columns.append(texts[np.searchsorted(distinct, X[block, j].view(np.int64))].tolist())
        columns += [text[codes[block, c]].tolist() for c, text in enumerate(words)]
        if missing is not None:
            for c, i in zip(*(a.tolist() for a in np.nonzero(missing[block].T))):
                columns[c][i] = "NA"
        fh.write("".join([",".join(row) + "\n" for row in zip(*columns)]))


def drop_sparse_features(table: Table, threshold: float) -> Table:
    """Drop every column whose null fraction strictly exceeds ``threshold``.

    A column at exactly the threshold is kept; column order is preserved.
    """
    NULL_THRESHOLD.check("threshold", threshold)
    keep = [i for i, c in enumerate(table.columns) if c.null_fraction <= threshold]
    return Table(
        tuple(table.column_names[i] for i in keep),
        tuple(table.columns[i] for i in keep),
        table.n_rows,
    )


def _median(values: np.ndarray) -> float:
    """The median of finite values, kept finite: two middle values whose sum
    overflows are averaged by halves.

    Read off the sorted values rather than by ``np.median``, whose mean of
    the middle values starts from ``0.0`` and so turns a ``-0.0`` median
    into ``0.0``.
    """
    ordered = np.sort(values)
    k = len(ordered) // 2
    if len(ordered) % 2:
        return ordered[k]
    a, b = ordered[k - 1], ordered[k]
    with np.errstate(over="ignore"):
        median = (a + b) / 2
    return median if np.isfinite(median) else a / 2 + b / 2


def impute(table: Table) -> Table:
    """Fill missing cells: numeric by column median, categorical by mode.

    Mode ties break to the lexicographically smallest value. A fully missing
    column is an error; it should have been dropped.
    """
    new_cols = []
    for name, col in zip(table.column_names, table.columns):
        missing = col.missing_mask
        if not missing.any():
            new_cols.append(col)
            continue
        if missing.all():
            raise DataError(f"column {name!r} is entirely missing; drop it before imputing")
        observed = col.values[~missing]
        values = col.values.copy()
        # bincount's first maximum is the smallest level, the documented tie-break
        fill = _median(observed) if col.kind == NUMERIC else np.bincount(observed).argmax()
        values[missing] = fill
        new_cols.append(Column(col.kind, values, col.levels))
    return Table(table.column_names, tuple(new_cols), table.n_rows)


def encode(table: Table, target_name: str) -> Frame:
    """Label-encode the target and one-hot the remaining categorical features.

    Classes are ordered lexicographically. Each categorical feature column
    ``c`` becomes one 0/1 column per category present in the table, named
    ``c=value`` and summing to 1 per row. Missing cells must be imputed first.
    """
    if target_name not in table.column_names:
        raise DataError(f"unknown target column {target_name!r}")
    target_col = table.column(target_name)
    if target_col.kind != CATEGORICAL:
        raise DataError(
            f"target {target_name!r} is numeric; load it with categorical={target_name!r}"
        )
    if target_col.missing_mask.any():
        raise DataError(f"target {target_name!r} has missing values")

    present, labels = np.unique(target_col.values, return_inverse=True)
    target = EncodedTarget(labels, tuple(target_col.levels[c] for c in present))

    names: list[str] = []
    columns: list[np.ndarray] = []  # float64 values, or a one-hot column as bools
    for name, col in zip(table.column_names, table.columns):
        if name == target_name:
            continue
        if col.kind == NUMERIC:
            names.append(name)
            columns.append(col.values)
            continue
        if col.missing_mask.any():
            raise DataError(f"categorical column {name!r} has missing values; impute first")
        for c in np.unique(col.values):
            names.append(f"{name}={col.levels[c]}")
            columns.append(col.values == c)
    if not columns:
        raise DataError(f"no feature column besides the target {target_name!r}")
    matrix = np.empty((table.n_rows, len(columns)))
    # a block of rows at a time: one column of the whole C-order matrix per
    # pass strides over all of it, a fill 3x as slow at 1M x 39
    size = block_rows(len(columns), matrix.itemsize)
    for start in range(0, table.n_rows, size):
        rows = slice(start, start + size)
        for j, values in enumerate(columns):
            matrix[rows, j] = values[rows]
    return Frame(tuple(names), matrix, target)


@dataclass(frozen=True)
class ScalerParams:
    """Per-column location/scale fitted on training rows only.

    zscore: (x - mean) / population std.  minmax: (x - min) / (max - min).
    Constant columns get scale 1, so they map to 0 either way.
    """

    mode: ScalerMode
    column_names: tuple[str, ...]
    location: np.ndarray
    scale: np.ndarray


def fit_scaler(frame: Frame, mode: ScalerMode = "zscore") -> ScalerParams:
    if message := fault(ScalerMode, mode):
        raise DataError(f"mode: {message}")
    X = frame.matrix
    if mode == "zscore":
        location = X.mean(axis=0)
        scale = X.std(axis=0)
    else:
        location = X.min(axis=0)
        scale = X.max(axis=0) - location
    scale = np.where(scale > 0, scale, 1.0)
    return ScalerParams(mode, frame.column_names, location, scale)


def _check_scaler_columns(frame: Frame, params: ScalerParams) -> None:
    if frame.column_names != params.column_names:
        raise DataError(
            "scaler/frame column mismatch: "
            f"frame has {list(frame.column_names)}, params for {list(params.column_names)}"
        )


def apply_scaler(frame: Frame, params: ScalerParams) -> Frame:
    """Scale features with fitted params. Values outside the training range
    are returned unclamped."""
    _check_scaler_columns(frame, params)
    Z = frame.matrix - params.location
    Z /= params.scale
    return Frame(frame.column_names, Z, frame.target)


def largest_remainder(quotas: np.ndarray, total: int) -> np.ndarray:
    """Whole counts summing to `total` from real `quotas` that sum to it:
    the floor of each quota, with the shortfall handed out one each by
    descending remainder, ties to the smaller index."""
    counts = np.floor(quotas).astype(np.int64)
    order = np.argsort(counts - quotas, kind="stable")  # descending remainder
    counts[order[: total - int(counts.sum())]] += 1
    return counts


def split(frame: Frame, train_fraction: float, seed: int) -> tuple[Frame, Frame]:
    """Stratified train/test split, deterministic per seed.

    Per-class train counts are the rounded quotas ``train_fraction * count``
    corrected by the largest-remainder rule so the total equals
    ``round(train_fraction * n_rows)``; neither side may be empty.
    """
    y = frame.labels
    TRAIN_FRACTION.check("train_fraction", train_fraction)
    n_classes = frame.target.n_classes
    counts = np.bincount(y, minlength=n_classes)
    small = [int(c) for c in np.nonzero(counts < 2)[0]]
    if small:
        raise DataError(f"classes with fewer than 2 rows cannot be split: {small}")
    n_train = int(round(train_fraction * frame.n_rows))
    if not 0 < n_train < frame.n_rows:
        side = "test" if n_train else "train"
        raise DataError(f"train_fraction {train_fraction} of {frame.n_rows} rows leaves the {side} side empty")

    take = largest_remainder(train_fraction * counts, n_train)
    take = np.minimum(take, counts)

    rng = np.random.default_rng(seed)
    train_idx: list[np.ndarray] = []
    test_idx: list[np.ndarray] = []
    for c in range(n_classes):
        rows = np.nonzero(y == c)[0]
        perm = rng.permutation(rows)
        train_idx.append(perm[: take[c]])
        test_idx.append(perm[take[c]:])
    train = np.sort(np.concatenate(train_idx))
    test = np.sort(np.concatenate(test_idx))
    return frame.select_rows(train), frame.select_rows(test)
