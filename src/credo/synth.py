"""Synthetic tabular dataset generator.

Produces a desk-scale CSV with Gaussian class clusters, a long-tailed
class histogram, a few weakly class-correlated categorical columns, and
missing cells injected at a configurable rate. Deterministic per seed.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from pathlib import Path
from typing import Annotated

import numpy as np

from .bounds import Bounded, NonNegFloat, NonNegInt, Range
from .errors import DataError
from .frame import largest_remainder, write_csv

__all__ = ["SynthSpec", "class_counts", "write_synthetic"]

_CATEGORY_LEVELS = ("alpha", "beta", "delta", "gamma")


@dataclass(frozen=True)
class SynthSpec(Bounded):
    """Shape and texture of the generated table.

    features counts every feature column, the trailing `categorical`
    ones included. imbalance is the geometric decay of class mass
    (1.0 = balanced); separation scales how far class means sit apart.
    A bound that reads another field comes after it, as read_value needs.
    """

    classes: Annotated[int, Range(2)] = 10
    rows: int = 20000
    categorical: NonNegInt = 3
    features: int = 30
    imbalance: Annotated[float, Range(0, 1, open_low=True)] = 0.7
    null_rate: Annotated[float, Range(0, 1, open_high=True)] = 0.02
    separation: NonNegFloat = 2.0
    seed: NonNegInt = 0
    target_name: str = "status"

    def __post_init__(self):
        super().__post_init__()
        if not self.classes * 10 <= self.rows <= 2**53:  # past 2**53 a float quota drops whole rows
            raise DataError(f"rows must be at least classes * 10 = {self.classes * 10} and at most 2**53")
        if self.features < self.categorical + 1:
            raise DataError("features must leave at least one numeric column")
        if not self.target_name:
            raise DataError("target_name must be non-empty")
        # the spellings `_column_names` gives; no int64 count has 20 digits
        named = re.fullmatch(r"num_([0-9]{2}|[1-9][0-9]{2,18})|cat_(0|[1-9][0-9]{0,18})", self.target_name)
        count = self.features - self.categorical if named and named[1] else self.categorical
        if named and int(named[1] or named[2]) < count:
            raise DataError(f"target_name {self.target_name!r} is also a feature column's name")


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
    """Write the CSV and return a summary of what was generated. A write
    that fails removes the partial file."""
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
        fh = open(path, "w", newline="", encoding="utf-8")
    except OSError as e:  # nothing was opened, so nothing is removed
        raise DataError(f"cannot write {path}: {e}") from e
    try:
        with fh:
            write_csv(
                fh,
                _column_names(spec),
                numeric,
                np.column_stack([cats, labels]),
                [_CATEGORY_LEVELS] * spec.categorical + [class_names],
                missing=null_mask,
            )
    except BaseException as e:
        Path(path).unlink(missing_ok=True)  # the partial file this call opened
        if isinstance(e, OSError):
            raise DataError(f"cannot write {path}: {e}") from e
        raise

    return {
        "path": path,
        "rows": n,
        "columns": spec.features + 1,
        "class_names": class_names,
        "class_counts": counts.tolist(),
        "null_rate": spec.null_rate,
        "seed": spec.seed,
    }
