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

from .errors import DataError, SmoteKClampWarning
from .frame import EncodedTarget, Frame, numeric_frame, training_arrays


@dataclass(frozen=True)
class SmoteConfig:
    k_neighbors: int = 5
    seed: int = 0
    target_count: int | None = None

    def __post_init__(self):
        if self.k_neighbors < 1:
            raise DataError(f"k_neighbors must be >= 1, got {self.k_neighbors}")
        if self.target_count is not None and self.target_count < 1:
            raise DataError(f"target_count must be >= 1, got {self.target_count}")


def _neighbor_indices(X: np.ndarray, k: int) -> np.ndarray:
    """Indices of the k nearest rows to each row of X, self excluded.

    Ties in distance resolve to the smaller row index (stable argsort),
    keeping the output independent of memory layout.
    """
    n = len(X)
    out = np.empty((n, k), dtype=np.int64)
    # chunk the pairwise distance matrix so huge classes stay in memory bounds
    chunk = max(1, int(4e6) // max(n, 1))
    sq = np.einsum("ij,ij->i", X, X)
    for start in range(0, n, chunk):
        stop = min(start + chunk, n)
        d2 = sq[start:stop, None] + sq[None, :] - 2.0 * (X[start:stop] @ X.T)
        d2[np.arange(start, stop) - start, np.arange(start, stop)] = np.inf
        order = np.argsort(d2, axis=1, kind="stable")
        out[start:stop] = order[:, :k]
    return out


def smote(train: Frame, cfg: SmoteConfig | None = None) -> Frame:
    """Oversample every class up to ``cfg.target_count`` (default: the size of
    the largest class).

    Original rows come first in the output, in their input order; synthetic
    rows follow, grouped by ascending class label. Deterministic per seed.
    Raises :class:`DataError` for a 1-row class that needs oversampling and
    warns (:class:`SmoteKClampWarning`) when k is clamped to class size - 1.
    """
    cfg = cfg or SmoteConfig()
    X, y, n_classes = training_arrays(train)
    counts = np.bincount(y, minlength=n_classes)
    target = cfg.target_count if cfg.target_count is not None else int(counts.max())

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
    return numeric_frame(X_out, train.column_names, target=target_out)
