"""SMOTE oversampling: balance class counts with interpolated synthetic rows.

Each synthetic row lies on the segment between a uniformly chosen class
member ``x`` and one of its k nearest same-class neighbors ``x_nn``:

    synthetic = x + u * (x_nn - x),   u ~ Uniform[0, 1]

Distances are Euclidean, so run this after encoding/scaling. Intended for the
training split only; mixing synthetic rows into evaluation data leaks the
minority geometry into the score.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .bounds import Bounded, NonNegInt, PosInt
from .budget import block_rows
from .errors import DataError, SmoteKClampWarning
from .frame import EncodedTarget, Frame


@dataclass(frozen=True)
class SmoteConfig(Bounded):
    k_neighbors: PosInt = 5
    seed: NonNegInt = 0


def _neighbor_indices(X: np.ndarray, k: int) -> np.ndarray:
    """Indices of the k nearest rows to each row of X, self excluded.

    Ties in distance resolve to the smaller row index (stable argsort),
    keeping the output independent of memory layout. The squared distances
    are formed a chunk of rows at a time, a (rows x n) block within the
    memory budget of :mod:`credo.budget`. Each row's inner products are one
    matrix-vector product of the same shape whatever its chunk, so the
    chunk size changes no bit: a (rows x d) by (d x n) product may round
    differently for different row counts.
    """
    n = len(X)
    out = np.empty((n, k), dtype=np.int64)
    chunk = block_rows(n, X.itemsize)
    sq = np.einsum("ij,ij->i", X, X)
    for start in range(0, n, chunk):
        stop = min(start + chunk, n)
        d2 = sq[start:stop, None] + sq[None, :] - 2.0 * (X[start:stop, None] @ X.T)[:, 0]
        d2[np.arange(start, stop) - start, np.arange(start, stop)] = np.inf
        order = np.argsort(d2, axis=1, kind="stable")
        out[start:stop] = order[:, :k]
    return out


def smote(train: Frame, cfg: SmoteConfig | None = None) -> Frame:
    """Oversample every class up to the size of the largest class.

    Original rows come first in the output, in their input order; synthetic
    rows follow, grouped by ascending class label. Deterministic per seed.
    Raises :class:`DataError` for a 1-row class that needs oversampling and
    warns (:class:`SmoteKClampWarning`) when k is clamped to class size - 1.
    """
    cfg = cfg or SmoteConfig()
    X, y, n_classes = train.matrix, train.labels, train.target.n_classes
    counts = np.bincount(y, minlength=n_classes)
    target = int(counts.max())

    rng = np.random.default_rng(cfg.seed)
    synth_blocks: list[np.ndarray] = []
    synth_labels: list[np.ndarray] = []
    for c in range(n_classes):
        deficit = target - int(counts[c])
        if deficit <= 0:
            continue
        rows = np.nonzero(y == c)[0]
        size = len(rows)
        if size < 2:
            raise DataError(
                f"class {c} has {size} row(s); need at least 2 to interpolate"
            )
        k = cfg.k_neighbors
        if k >= size:
            k = size - 1
            warnings.warn(
                f"class {c}: k_neighbors {cfg.k_neighbors} >= class size {size}, "
                f"clamped to {k}",
                SmoteKClampWarning,
            )
        Xc = X[rows]
        nn = _neighbor_indices(Xc, k)
        base = rng.integers(0, size, size=deficit)
        pick = rng.integers(0, k, size=deficit)
        u = rng.uniform(0.0, 1.0, size=deficit)
        anchor = Xc[base]
        neighbor = Xc[nn[base, pick]]
        synth_blocks.append(anchor + u[:, None] * (neighbor - anchor))
        synth_labels.append(np.full(deficit, c, dtype=np.int64))

    if not synth_blocks:
        return train
    X_out = np.vstack([X] + synth_blocks)
    y_out = np.concatenate([y] + synth_labels)
    target_out = EncodedTarget(y_out, train.target.class_names)
    return Frame(train.column_names, X_out, target_out)
