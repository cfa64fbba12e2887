"""Column-typed tabular datasets and the supervised preprocessing chain.

A :class:`Frame` is an immutable table of named columns, each either numeric
or categorical, with an explicit missing-value mask and an optional encoded
integer target. All operations return new frames; a frame is safe to share
across threads once constructed.

The preprocessing chain, in pipeline order:

    load_csv -> drop_sparse_features -> impute -> encode -> split
    -> fit_scaler / apply_scaler

CSV conventions: RFC-4180-style, UTF-8, header row required, ``,`` delimiter,
``"`` quoting. The tokens ``""``, ``"NA"`` and ``"null"`` (case-sensitive)
are read as missing.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass

import numpy as np

from .errors import DataError

NUMERIC = "numeric"
CATEGORICAL = "categorical"

MISSING_TOKENS = frozenset({"", "NA", "null"})


def _parse_finite(cell: str) -> float | None:
    """Return the float value of ``cell`` if it is a finite number, else None."""
    try:
        value = float(cell)
    except ValueError:
        return None
    return value if math.isfinite(value) else None


@dataclass(frozen=True)
class Column:
    """One column of a frame.

    ``values`` is float64 with NaN in missing slots for numeric columns, and
    an object array of strings (None in missing slots) for categorical ones.
    Arrays are treated as read-only by convention.
    """

    kind: str
    values: np.ndarray
    missing_mask: np.ndarray

    def __post_init__(self):
        if self.kind not in (NUMERIC, CATEGORICAL):
            raise DataError(f"unknown column kind {self.kind!r}")
        if len(self.values) != len(self.missing_mask):
            raise DataError("values and missing_mask lengths differ")
        if self.kind == NUMERIC:
            observed = self.values[~self.missing_mask]
            if observed.size and not np.all(np.isfinite(observed)):
                raise DataError("numeric column has non-finite observed cells")

    @property
    def n_rows(self) -> int:
        return len(self.values)

    @property
    def null_fraction(self) -> float:
        return float(np.count_nonzero(self.missing_mask)) / self.n_rows

    def take(self, idx: np.ndarray) -> "Column":
        return Column(self.kind, self.values[idx], self.missing_mask[idx])


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


@dataclass(frozen=True)
class Frame:
    """Immutable column-typed table with an optional encoded target."""

    column_names: tuple[str, ...]
    columns: tuple[Column, ...]
    n_rows: int
    target: EncodedTarget | None = None

    def __post_init__(self):
        if len(self.column_names) != len(self.columns):
            raise DataError("column_names and columns lengths differ")
        if len(set(self.column_names)) != len(self.column_names):
            raise DataError("column names must be unique")
        if any(not name for name in self.column_names):
            raise DataError("column names must be non-empty")
        for name, col in zip(self.column_names, self.columns):
            if col.n_rows != self.n_rows:
                raise DataError(f"column {name!r} has {col.n_rows} rows, frame has {self.n_rows}")
        if self.target is not None and len(self.target.labels) != self.n_rows:
            raise DataError("target length differs from n_rows")

    @property
    def n_features(self) -> int:
        return len(self.columns)

    def column(self, name: str) -> Column:
        try:
            i = self.column_names.index(name)
        except ValueError:
            raise DataError(f"no column named {name!r}") from None
        return self.columns[i]

    def feature_matrix(self) -> np.ndarray:
        """All-numeric feature matrix of shape (n_rows, n_features).

        Missing cells surface as NaN; categorical columns are an error.
        """
        bad = [n for n, c in zip(self.column_names, self.columns) if c.kind != NUMERIC]
        if bad:
            raise DataError(f"categorical columns present, encode first: {bad}")
        if not self.columns:
            return np.empty((self.n_rows, 0))
        return np.column_stack([c.values for c in self.columns])

    @property
    def labels(self) -> np.ndarray:
        if self.target is None:
            raise DataError("frame has no target")
        return self.target.labels

    def select_rows(self, idx: np.ndarray) -> "Frame":
        idx = np.asarray(idx)
        target = None
        if self.target is not None:
            target = EncodedTarget(self.target.labels[idx], self.target.class_names)
        return Frame(
            self.column_names,
            tuple(c.take(idx) for c in self.columns),
            int(len(idx)),
            target,
        )

    def with_features(self, matrix: np.ndarray, names: list[str] | tuple[str, ...]) -> "Frame":
        """New frame with the given numeric feature matrix, target carried over."""
        matrix = np.asarray(matrix, dtype=np.float64)
        if matrix.ndim != 2 or matrix.shape[0] != self.n_rows:
            raise DataError("feature matrix shape does not match frame rows")
        return numeric_frame(matrix, names, target=self.target)


def numeric_frame(
    matrix: np.ndarray,
    names: list[str] | tuple[str, ...] | None = None,
    target: EncodedTarget | None = None,
    labels: np.ndarray | None = None,
    class_names: tuple[str, ...] | None = None,
) -> Frame:
    """Build an all-numeric frame from a matrix.

    Either pass a ready ``target`` or ``labels`` (with optional
    ``class_names``; defaults to ``c0..c{k-1}`` covering the labels).
    """
    matrix = np.asarray(matrix, dtype=np.float64)
    if matrix.ndim != 2:
        raise DataError("matrix must be 2-D")
    n, d = matrix.shape
    if names is None:
        names = [f"x{i}" for i in range(d)]
    if target is None and labels is not None:
        labels = np.asarray(labels, dtype=np.int64)
        if class_names is None:
            k = int(labels.max()) + 1 if labels.size else 2
            k = max(k, 2)
            class_names = tuple(f"c{i}" for i in range(k))
        target = EncodedTarget(labels, class_names)
    mask = np.zeros(n, dtype=bool)
    cols = tuple(Column(NUMERIC, np.ascontiguousarray(matrix[:, j]), mask) for j in range(d))
    return Frame(tuple(names), cols, n, target)


def training_arrays(train: Frame) -> tuple[np.ndarray, np.ndarray, int]:
    """Feature matrix, labels and class count of an encoded, imputed frame."""
    if train.target is None:
        raise DataError("training frame needs an encoded target")
    X = train.feature_matrix()
    if np.isnan(X).any():
        raise DataError("training frame has missing cells; impute first")
    return X, train.labels, train.target.n_classes


def load_csv(path: str, schema_hints: dict[str, str] | None = None) -> Frame:
    """Load a CSV file, inferring numeric/categorical kinds per column.

    A column is numeric iff every non-missing cell parses as a finite number;
    ``schema_hints`` ({name: "numeric"|"categorical"}) overrides inference.
    Raises :class:`DataError` on an empty file, ragged rows, or a hint that
    contradicts the data.
    """
    try:
        fh = open(path, newline="", encoding="utf-8")
    except OSError as e:
        raise DataError(f"cannot read {path}: {e}") from e
    with fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None:
            raise DataError(f"{path}: empty file")
        rows = []
        for i, row in enumerate(reader, start=1):
            if not row:
                continue  # blank line
            if len(row) != len(header):
                raise DataError(
                    f"{path}: data row {i}: expected {len(header)} cells, got {len(row)}"
                )
            rows.append(row)
    if not rows:
        raise DataError(f"{path}: no data rows")

    hints = dict(schema_hints or {})
    for name in hints:
        if name not in header:
            raise DataError(f"schema hint for unknown column {name!r}")
        if hints[name] not in (NUMERIC, CATEGORICAL):
            raise DataError(f"schema hint for {name!r} must be 'numeric' or 'categorical'")

    columns = []
    for j, name in enumerate(header):
        cells = [row[j] for row in rows]
        missing = np.fromiter((c in MISSING_TOKENS for c in cells), dtype=bool, count=len(cells))
        parsed = [None if m else _parse_finite(c) for c, m in zip(cells, missing)]
        all_numeric = all(p is not None for p, m in zip(parsed, missing) if not m)
        kind = hints.get(name, NUMERIC if all_numeric else CATEGORICAL)
        if kind == NUMERIC:
            if not all_numeric:
                bad = next(i for i, (p, m) in enumerate(zip(parsed, missing), 1) if not m and p is None)
                raise DataError(
                    f"column {name!r} hinted numeric but data row {bad} does not parse"
                )
            values = np.array(
                [np.nan if m else p for p, m in zip(parsed, missing)], dtype=np.float64
            )
        else:
            values = np.array([None if m else c for c, m in zip(cells, missing)], dtype=object)
        columns.append(Column(kind, values, missing))

    return Frame(tuple(header), tuple(columns), len(rows))


def check_null_threshold(threshold: float) -> None:
    if not (0 < threshold <= 1):
        raise DataError(f"threshold must be in (0, 1], got {threshold}")


def drop_sparse_features(frame: Frame, threshold: float) -> Frame:
    """Drop every column whose null fraction strictly exceeds ``threshold``.

    A column at exactly the threshold is kept; column order is preserved.
    """
    check_null_threshold(threshold)
    keep = [i for i, c in enumerate(frame.columns) if c.null_fraction <= threshold]
    if not keep:
        raise DataError("all features sparse")
    return Frame(
        tuple(frame.column_names[i] for i in keep),
        tuple(frame.columns[i] for i in keep),
        frame.n_rows,
        frame.target,
    )


def impute(frame: Frame) -> Frame:
    """Fill missing cells: numeric by column median, categorical by mode.

    Mode ties break to the lexicographically smallest value. A fully missing
    column is an error; it should have been dropped.
    """
    new_cols = []
    for name, col in zip(frame.column_names, frame.columns):
        if not col.missing_mask.any():
            new_cols.append(col)
            continue
        if col.missing_mask.all():
            raise DataError(f"column {name!r} is entirely missing; drop it before imputing")
        observed = col.values[~col.missing_mask]
        if col.kind == NUMERIC:
            fill = float(np.median(observed))
            values = col.values.copy()
            values[col.missing_mask] = fill
        else:
            uniq, counts = np.unique(observed.astype(str), return_counts=True)
            fill = str(min(uniq[counts == counts.max()]))
            values = col.values.copy()
            values[col.missing_mask] = fill
        new_cols.append(Column(col.kind, values, np.zeros(frame.n_rows, dtype=bool)))
    return Frame(frame.column_names, tuple(new_cols), frame.n_rows, frame.target)


def encode(frame: Frame, target_name: str) -> Frame:
    """Label-encode the target and one-hot the remaining categorical features.

    Classes are ordered lexicographically. Each categorical feature column
    ``c`` becomes one 0/1 column per category, named ``c=value`` and summing
    to 1 per row. Missing cells must be imputed first.
    """
    if target_name not in frame.column_names:
        raise DataError(f"unknown target column {target_name!r}")
    target_col = frame.column(target_name)
    if target_col.kind != CATEGORICAL:
        raise DataError(
            f"target {target_name!r} is numeric; hint it categorical at load time"
        )
    if target_col.missing_mask.any():
        raise DataError(f"target {target_name!r} has missing values")

    raw = target_col.values.astype(str)
    class_names = tuple(sorted(set(raw.tolist())))
    index = {c: i for i, c in enumerate(class_names)}
    labels = np.fromiter((index[v] for v in raw), dtype=np.int64, count=frame.n_rows)
    target = EncodedTarget(labels, class_names)

    names: list[str] = []
    cols: list[Column] = []
    no_missing = np.zeros(frame.n_rows, dtype=bool)
    for name, col in zip(frame.column_names, frame.columns):
        if name == target_name:
            continue
        if col.kind == NUMERIC:
            names.append(name)
            cols.append(col)
            continue
        if col.missing_mask.any():
            raise DataError(f"categorical column {name!r} has missing values; impute first")
        values = col.values.astype(str)
        for category in sorted(set(values.tolist())):
            names.append(f"{name}={category}")
            cols.append(Column(NUMERIC, (values == category).astype(np.float64), no_missing))
    return Frame(tuple(names), tuple(cols), frame.n_rows, target)


@dataclass(frozen=True)
class ScalerParams:
    """Per-column location/scale fitted on training rows only.

    zscore: (x - mean) / population std.  minmax: (x - min) / (max - min).
    Constant columns get scale 1, so they map to 0 either way.
    """

    mode: str
    column_names: tuple[str, ...]
    location: np.ndarray
    scale: np.ndarray


def fit_scaler(frame: Frame, mode: str = "zscore") -> ScalerParams:
    if mode not in ("zscore", "minmax"):
        raise DataError(f"unknown scaler mode {mode!r}")
    X = frame.feature_matrix()
    if np.isnan(X).any():
        raise DataError("frame has missing cells; impute before scaling")
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
    X = frame.feature_matrix()
    return frame.with_features((X - params.location) / params.scale, frame.column_names)


def invert_scaler(frame: Frame, params: ScalerParams) -> Frame:
    """Undo :func:`apply_scaler`; exact per column since every scale > 0."""
    _check_scaler_columns(frame, params)
    X = frame.feature_matrix()
    return frame.with_features(X * params.scale + params.location, frame.column_names)


def split(frame: Frame, train_fraction: float, seed: int) -> tuple[Frame, Frame]:
    """Stratified train/test split, deterministic per seed.

    Per-class train counts are the rounded quotas ``train_fraction * count``
    corrected by the largest-remainder rule so the total equals
    ``round(train_fraction * n_rows)``.
    """
    if frame.target is None:
        raise DataError("split needs an encoded target")
    if not (0 < train_fraction < 1):
        raise DataError(f"train_fraction must be in (0, 1), got {train_fraction}")
    y = frame.target.labels
    n_classes = frame.target.n_classes
    counts = np.bincount(y, minlength=n_classes)
    small = [int(c) for c in np.nonzero(counts < 2)[0]]
    if small:
        raise DataError(f"classes with fewer than 2 rows cannot be split: {small}")

    quotas = train_fraction * counts
    base = np.floor(quotas).astype(np.int64)
    total = int(round(train_fraction * frame.n_rows))
    short = total - int(base.sum())
    remainders = quotas - base
    # hand out the shortfall by descending remainder, ties to the smaller class
    order = sorted(range(n_classes), key=lambda c: (-remainders[c], c))
    take = base.copy()
    for c in order[:short]:
        take[c] += 1
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
