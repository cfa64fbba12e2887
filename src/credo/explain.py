"""Model-agnostic explainability: local linear surrogates and global
one-step-at-a-time screening.

Both explainers treat the model as a black box exposing ``predict_proba``.
``lime_explain`` fits a kernel-weighted ridge surrogate to the model's
behavior in a Gaussian neighborhood of one row and reports signed feature
weights plus normalized importances.  ``morris_screen`` walks random
one-step-at-a-time trajectories through a leveled grid over the feature
ranges and summarizes the elementary effects of each feature as mu
(mean effect), mu_star (mean absolute effect), and sigma (effect spread,
which flags nonlinearity or interactions).
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass

import numpy as np

from .baselines import check_nonnegative
from .errors import DataError
from .frame import Frame

__all__ = [
    "LimeConfig",
    "LimeExplanation",
    "MorrisConfig",
    "MorrisScreening",
    "build_trajectories",
    "explanation_to_csv",
    "lime_explain",
    "morris_screen",
    "rank_features",
]

_RIDGE = 1e-3


@dataclass(frozen=True)
class LimeConfig:
    """Knobs for the local surrogate fit.

    kernel_width None means 0.75 * sqrt(n_features); n_features None
    reports every feature.
    """

    n_samples: int = 5000
    kernel_width: float | None = None
    n_features: int | None = None
    seed: int = 0

    def __post_init__(self):
        if self.n_samples < 2:
            raise DataError("n_samples must be at least 2")
        if self.kernel_width is not None and not self.kernel_width > 0:
            raise DataError("kernel_width must be positive")
        if self.n_features is not None and self.n_features < 1:
            raise DataError("n_features must be at least 1")
        check_nonnegative(seed=self.seed)


@dataclass(frozen=True)
class LimeExplanation:
    """Local surrogate for one row, features ordered by |weight| descending.

    importances are |weight| normalized to sum to 1 over the reported
    features; when every weight is zero the mass is spread uniformly.
    The intercept is the surrogate's value at the explained row itself.
    """

    row_index: int
    target_class: int
    feature_names: tuple[str, ...]
    weights: np.ndarray
    importances: np.ndarray
    intercept: float
    r_squared: float
    kernel_width: float
    n_samples: int
    seed: int

    def __post_init__(self):
        k = len(self.feature_names)
        if self.weights.shape != (k,) or self.importances.shape != (k,):
            raise DataError("weights and importances must match feature_names")

    def to_dict(self) -> dict:
        return {
            "row_index": self.row_index,
            "target_class": self.target_class,
            "features": [
                {"name": n, "weight": float(w), "importance": float(p)}
                for n, w, p in zip(self.feature_names, self.weights, self.importances)
            ],
            "intercept": self.intercept,
            "r_squared": self.r_squared,
            "kernel_width": self.kernel_width,
            "n_samples": self.n_samples,
            "seed": self.seed,
        }


@dataclass(frozen=True)
class MorrisConfig:
    n_trajectories: int = 20
    n_levels: int = 4
    seed: int = 0

    def __post_init__(self):
        if self.n_trajectories < 2:
            raise DataError("need at least 2 trajectories, effect spread is undefined below that")
        if self.n_levels < 2:
            raise DataError("n_levels must be at least 2")
        check_nonnegative(seed=self.seed)


@dataclass(frozen=True)
class MorrisScreening:
    """Elementary-effect summary per feature.

    mu, mu_star, and sigma are full-length arrays; excluded (zero-width
    range) features hold NaN and are listed in `excluded`.  Effects are
    computed against unit-cube steps, so each feature's numbers carry its
    range width as a scale factor.
    """

    feature_names: tuple[str, ...]
    mu: np.ndarray
    mu_star: np.ndarray
    sigma: np.ndarray
    n_trajectories: int
    n_levels: int
    step: float
    ranges: np.ndarray
    excluded: tuple[str, ...]
    seed: int
    target_class: int | None = None

    def __post_init__(self):
        d = len(self.feature_names)
        for arr, nm in ((self.mu, "mu"), (self.mu_star, "mu_star"), (self.sigma, "sigma")):
            if arr.shape != (d,):
                raise DataError(f"{nm} must have one entry per feature")
        if self.ranges.shape != (d, 2):
            raise DataError("ranges must be (n_features, 2)")

    @property
    def output(self) -> str:
        """The scalar screened: a given class's probability, or that of the
        class predicted at the midpoint of the ranges."""
        return "predicted_class_prob" if self.target_class is None else "class_prob"

    def to_dict(self) -> dict:
        return {
            "features": [
                {
                    "name": n,
                    "mu": None if np.isnan(m) else float(m),
                    "mu_star": None if np.isnan(ms) else float(ms),
                    "sigma": None if np.isnan(s) else float(s),
                    "range": [float(lo), float(hi)],
                }
                for n, m, ms, s, (lo, hi) in zip(
                    self.feature_names, self.mu, self.mu_star, self.sigma, self.ranges
                )
            ],
            "n_trajectories": self.n_trajectories,
            "n_levels": self.n_levels,
            "step": self.step,
            "excluded": list(self.excluded),
            "seed": self.seed,
            "output": self.output,
            "target_class": self.target_class,
        }


# ------------------------------------------------------------------ lime


def lime_explain(
    model,
    background: Frame,
    row,
    target_class: int,
    cfg: LimeConfig = LimeConfig(),
    row_index: int = -1,
) -> LimeExplanation:
    """Fit a kernel-weighted linear surrogate around one row.

    Perturbations are drawn from Normal(row, per-feature background std)
    and expressed as standardized displacements u = (z - row) / std, so a
    reported weight is the surrogate slope per background-standard-
    deviation of that feature.  Samples are weighted by
    exp(-|u|^2 / kernel_width^2) and the target-class probability is
    regressed on u with an unpenalized intercept and slope ridge 1e-3.
    """
    if background.n_rows == 0:
        raise DataError("background frame is empty")
    X = background.matrix
    row = np.asarray(row, dtype=float)
    d = X.shape[1]
    if row.shape != (d,):
        raise DataError(f"row has {row.shape} shape, background has {d} features")
    if not 0 <= target_class < model.n_classes:
        raise DataError(f"target_class {target_class} out of range for {model.n_classes} classes")

    stds = X.std(axis=0)
    if not (stds > 0).any():
        raise DataError("background has zero variance in every feature")

    kw = cfg.kernel_width if cfg.kernel_width is not None else 0.75 * np.sqrt(d)
    rng = np.random.default_rng(cfg.seed)
    U = rng.normal(size=(cfg.n_samples, d))
    U[:, stds == 0] = 0.0
    Z = row + U * stds
    y = np.asarray(model.predict_proba(Z), dtype=float)[:, target_class]

    pi = np.exp(-(U * U).sum(axis=1) / (kw * kw))
    sw = pi.sum()
    if not sw > 0:
        raise DataError("kernel weights underflowed to zero, widen kernel_width")

    ubar = (pi @ U) / sw
    ybar = float(pi @ y) / sw
    Uc = U - ubar
    yc = y - ybar
    weighted = (Uc * pi[:, None]).T
    A = weighted @ Uc + _RIDGE * np.eye(d)
    w = np.linalg.solve(A, weighted @ yc)
    intercept = ybar - float(ubar @ w)

    pred = intercept + U @ w
    ss_res = float(pi @ ((y - pred) ** 2))
    ss_tot = float(pi @ (yc**2))
    r2 = 1.0 - ss_res / ss_tot if ss_tot > 0 else 1.0

    k = d if cfg.n_features is None else min(cfg.n_features, d)
    order = np.argsort(-np.abs(w), kind="stable")[:k]
    picked = np.abs(w[order])
    total = picked.sum()
    importances = picked / total if total > 0 else np.full(k, 1.0 / k)

    return LimeExplanation(
        row_index=int(row_index),
        target_class=int(target_class),
        feature_names=tuple(background.column_names[i] for i in order),
        weights=w[order].copy(),
        importances=importances,
        intercept=intercept,
        r_squared=r2,
        kernel_width=float(kw),
        n_samples=cfg.n_samples,
        seed=cfg.seed,
    )


# ---------------------------------------------------------------- morris


def build_trajectories(n_features: int, n_trajectories: int, n_levels: int, step: float, rng) -> np.ndarray:
    """Random one-step-at-a-time paths in the unit hypercube.

    Returns (n_trajectories, n_features + 1, n_features) points.  Each
    path starts on the grid {i / (n_levels - 1)} restricted to values
    that keep base + step inside [0, 1], then raises one coordinate by
    `step` per move, visiting every coordinate exactly once in a random
    order.
    """
    grid_gap = 1.0 / (n_levels - 1)
    n_base = int(np.floor((1.0 - step) / grid_gap + 1e-12)) + 1
    points = np.empty((n_trajectories, n_features + 1, n_features))
    for t in range(n_trajectories):
        base = rng.integers(0, n_base, size=n_features) * grid_gap
        order = rng.permutation(n_features)
        points[t, 0] = base
        for k, j in enumerate(order):
            points[t, k + 1] = points[t, k]
            points[t, k + 1, j] += step
    return points


def morris_screen(
    model,
    ranges,
    target_class: int | None = None,
    cfg: MorrisConfig = MorrisConfig(),
    feature_names: tuple[str, ...] | None = None,
) -> MorrisScreening:
    """Screen feature influence with elementary effects over `ranges`.

    ranges is (n_features, 2) [min, max] rows; zero-width rows are held
    at their constant value, excluded from screening, and reported.
    The scalar under study is the probability of `target_class` if it is
    given, else of the class the model predicts at the midpoint of the
    ranges.  Trajectories move by Morris's classic step
    n_levels / (2 * (n_levels - 1)) of the unit cube, and elementary
    effects divide by it, so a feature's effects scale with its range
    width.
    """
    ranges = np.asarray(ranges, dtype=float)
    if ranges.ndim != 2 or ranges.shape[1] != 2:
        raise DataError("ranges must be (n_features, 2) [min, max] rows")
    if not np.isfinite(ranges).all():
        raise DataError("ranges must be finite")
    if (ranges[:, 0] > ranges[:, 1]).any():
        raise DataError("range min may not exceed max")
    d = ranges.shape[0]
    if feature_names is None:
        feature_names = tuple(f"x{i}" for i in range(d))
    feature_names = tuple(feature_names)
    if len(feature_names) != d:
        raise DataError("feature_names length must match ranges")

    width = ranges[:, 1] - ranges[:, 0]
    active = np.flatnonzero(width > 0)
    if active.size == 0:
        raise DataError("every feature range has zero width, nothing to screen")
    excluded = tuple(feature_names[i] for i in np.flatnonzero(width == 0))

    step = cfg.n_levels / (2.0 * (cfg.n_levels - 1))

    def to_actual(unit_active: np.ndarray) -> np.ndarray:
        full = np.broadcast_to(ranges[:, 0], unit_active.shape[:-1] + (d,)).copy()
        full[..., active] += unit_active * width[active]
        return full

    if target_class is not None:
        cls = int(target_class)
    else:
        midpoint = to_actual(np.full(active.size, 0.5))
        cls = int(np.argmax(model.predict_proba(midpoint[None, :])[0]))
    if not 0 <= cls < model.n_classes:
        raise DataError(f"target_class {cls} out of range for {model.n_classes} classes")

    rng = np.random.default_rng(cfg.seed)
    m = active.size
    paths = build_trajectories(m, cfg.n_trajectories, cfg.n_levels, step, rng)
    flat = to_actual(paths.reshape(-1, m))
    values = np.asarray(model.predict_proba(flat), dtype=float)[:, cls]
    values = values.reshape(cfg.n_trajectories, m + 1)

    # step k of trajectory t raises coordinate moved_at[t, k]
    effects = np.empty((cfg.n_trajectories, m))
    diffs = np.diff(values, axis=1) / step
    moved = np.argmax(np.diff(paths, axis=1) > 0, axis=2)
    for t in range(cfg.n_trajectories):
        effects[t, moved[t]] = diffs[t]

    mu = np.full(d, np.nan)
    mu_star = np.full(d, np.nan)
    sigma = np.full(d, np.nan)
    mu[active] = effects.mean(axis=0)
    mu_star[active] = np.abs(effects).mean(axis=0)
    sigma[active] = effects.std(axis=0, ddof=1)

    return MorrisScreening(
        feature_names=feature_names,
        mu=mu,
        mu_star=mu_star,
        sigma=sigma,
        n_trajectories=cfg.n_trajectories,
        n_levels=cfg.n_levels,
        step=float(step),
        ranges=ranges.copy(),
        excluded=excluded,
        seed=cfg.seed,
        target_class=None if target_class is None else int(target_class),
    )


# --------------------------------------------------------------- ranking


def rank_features(explanation) -> list[tuple[str, float]]:
    """Ordered (feature, score) pairs, strongest first.

    Scores are mu_star for a screening and normalized importance for a
    local surrogate; ties keep the lower feature index first.  Excluded
    (NaN) screening features are omitted.
    """
    if isinstance(explanation, MorrisScreening):
        names = explanation.feature_names
        scores = explanation.mu_star
        valid = np.flatnonzero(~np.isnan(scores))
    elif isinstance(explanation, LimeExplanation):
        names = explanation.feature_names
        scores = explanation.importances
        valid = np.arange(len(names))
    else:
        raise DataError(f"cannot rank a {type(explanation).__name__}")
    order = valid[np.argsort(-scores[valid], kind="stable")]
    return [(names[i], float(scores[i])) for i in order]


def explanation_to_csv(explanation) -> str:
    """Two-column plot-ready rendering: feature,score ordered by rank, a
    name quoted as csv.writer quotes it and a score as its ``repr``."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["feature", "score"])
    writer.writerows((name, repr(score)) for name, score in rank_features(explanation))
    return buf.getvalue()
