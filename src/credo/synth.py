"""Synthetic tabular dataset generator.

Produces a desk-scale CSV with Gaussian class clusters, a long-tailed
class histogram, a few weakly class-correlated categorical columns, and
missing cells injected at a configurable rate. Deterministic per seed.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DataError
from .frame import largest_remainder, write_csv

__all__ = ["SynthSpec", "class_counts", "write_synthetic"]

_CATEGORY_LEVELS = ("alpha", "beta", "delta", "gamma")


@dataclass(frozen=True)
class SynthSpec:
    """Shape and texture of the generated table.

    features counts every feature column, the trailing `categorical`
    ones included. imbalance is the geometric decay of class mass
    (1.0 = balanced); separation scales how far class means sit apart.
    """

    rows: int = 20000
    features: int = 30
    classes: int = 10
    imbalance: float = 0.7
    null_rate: float = 0.02
    separation: float = 2.0
    categorical: int = 3
    seed: int = 0
    target_name: str = "status"

    def __post_init__(self):
        if self.classes < 2:
            raise ConfigError("classes must be at least 2")
        if self.rows < self.classes * 10:
            raise ConfigError(f"rows must be at least classes * 10 = {self.classes * 10}")
        if self.categorical < 0:
            raise ConfigError("categorical may not be negative")
        if self.features < self.categorical + 1:
            raise ConfigError("features must leave at least one numeric column")
        if not 0 < self.imbalance <= 1:
            raise ConfigError("imbalance must lie in (0, 1]")
        if not 0 <= self.null_rate < 1:
            raise ConfigError("null_rate must lie in [0, 1)")
        if self.separation < 0:
            raise ConfigError("separation may not be negative")
        if not self.target_name:
            raise ConfigError("target_name must be non-empty")
        if self.seed < 0:
            raise ConfigError("seed may not be negative")


def class_counts(spec: SynthSpec) -> np.ndarray:
    """Long-tailed per-class row counts summing to spec.rows.

    Class c gets mass proportional to imbalance**c, rounded by largest
    remainder, then repaired so no class drops below 10 rows.
    """
    mass = spec.imbalance ** np.arange(spec.classes)
    counts = largest_remainder(spec.rows * mass / mass.sum(), spec.rows)
    while counts.min() < 10:
        counts[int(np.argmin(counts))] += 1
        counts[int(np.argmax(counts))] -= 1
    return counts


def _column_names(spec: SynthSpec) -> list[str]:
    n_num = spec.features - spec.categorical
    names = [f"num_{i:02d}" for i in range(n_num)]
    names += [f"cat_{i}" for i in range(spec.categorical)]
    return names + [spec.target_name]


def write_synthetic(path: str, spec: SynthSpec = SynthSpec()) -> dict:
    """Write the CSV and return a summary of what was generated."""
    rng = np.random.default_rng(spec.seed)
    counts = class_counts(spec)
    labels = np.repeat(np.arange(spec.classes), counts)
    n = spec.rows
    n_num = spec.features - spec.categorical

    means = rng.normal(scale=spec.separation, size=(spec.classes, n_num))
    numeric = rng.normal(size=(n, n_num)) + means[labels]

    cats = np.empty((n, spec.categorical), dtype=np.int64)
    for j in range(spec.categorical):
        noise = rng.integers(0, len(_CATEGORY_LEVELS), size=n)
        follow = rng.random(n) < 0.5
        cats[:, j] = np.where(follow, (labels + j) % len(_CATEGORY_LEVELS), noise)

    null_mask = rng.random((n, spec.features)) < spec.null_rate

    perm = rng.permutation(n)
    labels, numeric, cats, null_mask = labels[perm], numeric[perm], cats[perm], null_mask[perm]

    digits = len(str(spec.classes - 1))
    class_names = [f"c{c:0{digits}d}" for c in range(spec.classes)]

    try:
        with open(path, "w", newline="", encoding="utf-8") as fh:
            write_csv(
                fh,
                _column_names(spec),
                numeric,
                np.column_stack([cats, labels]),
                [_CATEGORY_LEVELS] * spec.categorical + [class_names],
                missing=null_mask,
            )
    except OSError as e:
        raise DataError(f"cannot write {path}: {e}") from e

    return {
        "path": path,
        "rows": n,
        "columns": spec.features + 1,
        "class_names": class_names,
        "class_counts": counts.tolist(),
        "null_rate": spec.null_rate,
        "seed": spec.seed,
    }
