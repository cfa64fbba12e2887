"""Non-boosted, non-neural classifiers: multinomial logistic regression,
Gaussian naive Bayes, CART decision trees, and a bootstrap random forest.

This module also states the contract that every fitted model in the zoo
keeps, once, as the ``Classifier`` base: ``predict_proba`` maps a feature
matrix (or all-numeric frame) of the model's width to a row-stochastic
C-column matrix, and ``predict`` takes the argmax, breaking ties toward the
smallest class index. Models are immutable after fitting; prediction is
pure.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from functools import cached_property
from typing import Literal

import numpy as np

from .bounds import Bounded, NonNegFloat, NonNegInt, PosInt
from .errors import DataError, NumericError
from .frame import Frame
from .trees import CountStat, FlatTree, Presorted, TreeStack, grow, presort


def softmax(scores: np.ndarray) -> np.ndarray:
    z = scores - scores.max(axis=1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=1, keepdims=True)


def cross_entropy(P: np.ndarray, labels: np.ndarray) -> float:
    """Mean negative log-probability of each row's label; only the log is clipped."""
    return -np.mean(np.log(np.clip(P[np.arange(len(P)), labels], 1e-300, None)))


class Classifier:
    """The fitted-model contract. Subclasses provide ``feature_names`` (the
    columns they were fit on), ``n_classes`` and ``predict_proba``, which
    takes its input through ``_coerce``; ``n_features`` counts the names
    unless a family's arrays fix the width."""

    @property
    def n_features(self) -> int:
        return len(self.feature_names)

    def _coerce(self, X) -> np.ndarray:
        """`X`, a frame holding the fitted columns in their fitted order or
        an array of this model's width, as a C-contiguous float64 matrix."""
        if isinstance(X, Frame):
            if X.column_names != self.feature_names:
                raise DataError(
                    f"frame features {list(X.column_names)} do not match the fitted "
                    f"features {list(self.feature_names)}"
                )
            X = X.matrix
        X = np.ascontiguousarray(X, dtype=np.float64)
        if X.ndim != 2 or X.shape[1] != self.n_features:
            raise DataError(f"model expects {self.n_features} features, got shape {X.shape}")
        return X

    def predict(self, X) -> np.ndarray:
        # np.argmax returns the first maximal index, the required tie-break
        return self.predict_proba(X).argmax(axis=1)


# ------------------------------------------------- logistic regression


@dataclass(frozen=True)
class LogregConfig(Bounded):
    l2: NonNegFloat = 1e-4
    max_iter: NonNegInt = 500
    tol: NonNegFloat = 1e-6


@dataclass(frozen=True)
class LogisticModel(Classifier):
    weights: np.ndarray
    bias: np.ndarray
    converged: bool
    n_iter: int
    loss_history: np.ndarray  # initial loss plus one entry per accepted step
    feature_names: tuple[str, ...]

    def __post_init__(self):
        if self.weights.ndim != 2 or self.bias.shape != (self.weights.shape[1],):
            raise DataError(
                f"weights {self.weights.shape} must be (features, classes) and bias "
                f"{self.bias.shape} one entry per class"
            )

    @property
    def n_features(self) -> int:
        return self.weights.shape[0]

    @property
    def n_classes(self) -> int:
        return self.weights.shape[1]

    def predict_proba(self, X) -> np.ndarray:
        X = self._coerce(X)
        return softmax(X @ self.weights + self.bias)


def logreg_objective(W, b, X, labels, l2):
    """Mean cross-entropy of each row's integer label plus (l2/2)||W||^2,
    and its gradients; the bias is not penalized."""
    n = len(X)
    R = softmax(X @ W + b)
    loss = cross_entropy(R, labels) + 0.5 * l2 * float((W * W).sum())
    R[np.arange(n), labels] -= 1.0  # P - Y, in place
    R /= n
    return loss, X.T @ R + l2 * W, R.sum(axis=0)


LBFGS_PAIRS = 10  # (s, y) pairs kept for the L-BFGS inverse-Hessian estimate


def _lbfgs_direction(g: np.ndarray, pairs) -> np.ndarray:
    """-H g, where H is the L-BFGS inverse Hessian from ``pairs`` of (s, y,
    1 / s'y), oldest first, by the two-loop recursion (Nocedal & Wright,
    Algorithm 7.4); the initial H is s'y / y'y of the newest pair."""
    q = g.copy()
    alphas = []
    for s, y, rho in reversed(pairs):
        alphas.append(rho * (s @ q))
        q -= alphas[-1] * y
    _, y, rho = pairs[-1]
    q /= rho * (y @ y)
    for (s, y, rho), alpha in zip(pairs, reversed(alphas)):
        q += (alpha - rho * (y @ q)) * s
    return -q


def _backtrack(objective, theta, loss, p, slope, step):
    """Armijo backtracking along ``p`` from ``step``: up to 60 halvings until
    the loss is at most ``loss + 1e-4 * step * slope``, where ``slope`` is
    g'p < 0. Returns the accepted (theta, loss, gradient, step), or None. A
    trial point whose loss overflows is rejected like any other, so it
    raises no float warning."""
    for _ in range(60):
        trial = theta + step * p
        with np.errstate(over="ignore", invalid="ignore"):
            new_loss, g = objective(trial)
        if np.isfinite(new_loss) and new_loss <= loss + 1e-4 * step * slope:
            return trial, new_loss, g, step
        step *= 0.5
    return None


def fit_logreg(train: Frame, cfg: LogregConfig | None = None) -> LogisticModel:
    """L-BFGS (Liu & Nocedal, 1989) over the flattened (W, b) with Armijo
    backtracking line search.

    The direction comes from the last ``LBFGS_PAIRS`` (s, y) pairs, the
    changes in parameters and in gradient; a pair is kept only when s'y > 0.
    With no pair yet, or when that direction is not a descent direction, the
    step is the gradient step: its length doubles from the last accepted
    gradient step, up to 1e6, before backtracking. A direction whose line
    search fails is retried along the gradient. Stops when the gradient
    max-norm drops below ``tol`` (converged), at ``max_iter``, or when no
    step is accepted; the flag is recorded on the model.
    """
    cfg = cfg or LogregConfig()
    l2, max_iter, tol = cfg.l2, cfg.max_iter, cfg.tol
    X, labels, n_classes = train.matrix, train.labels, train.target.n_classes

    def unpack(theta):
        return theta[:-n_classes].reshape(-1, n_classes), theta[-n_classes:]

    def objective(theta):
        loss, gW, gb = logreg_objective(*unpack(theta), X, labels, l2)
        return loss, np.concatenate([gW.ravel(), gb])

    theta = np.zeros((X.shape[1] + 1) * n_classes)
    loss, g = objective(theta)
    history = [loss]
    pairs: deque = deque(maxlen=LBFGS_PAIRS)
    step = 1.0  # the last accepted gradient step
    converged = False
    it = 0
    for it in range(1, max_iter + 1):
        if not np.isfinite(loss):
            raise NumericError(f"logistic regression loss non-finite at iteration {it}")
        if np.abs(g).max() < tol:
            converged = True
            break
        accepted = None
        if pairs:
            p = _lbfgs_direction(g, pairs)
            slope = float(g @ p)
            if slope < 0:
                accepted = _backtrack(objective, theta, loss, p, slope, 1.0)
        if accepted is None:
            with np.errstate(over="ignore"):
                slope = -float(g @ g)
            if not np.isfinite(slope):
                raise NumericError(
                    f"logistic regression gradient overflows at iteration {it}: features reach "
                    f"{np.abs(X).max():.3g} in magnitude; set scaler to zscore or minmax"
                )
            accepted = _backtrack(objective, theta, loss, -g, slope, min(step * 2.0, 1e6))
            if accepted is None:
                break  # no descent progress left at float precision
            step = accepted[3]
        new_theta, loss, new_g, _ = accepted
        s, y = new_theta - theta, new_g - g
        sy = float(s @ y)
        if sy > 0:
            pairs.append((s, y, 1.0 / sy))
        theta, g = new_theta, new_g
        history.append(loss)
    else:
        it = max_iter
    return LogisticModel(*unpack(theta), converged, it, np.array(history), train.column_names)


# ---------------------------------------------------- Gaussian naive Bayes


@dataclass(frozen=True)
class GnbConfig(Bounded):
    var_smoothing: NonNegFloat = 1e-9


@dataclass(frozen=True)
class GaussianNBModel(Classifier):
    means: np.ndarray
    variances: np.ndarray
    priors: np.ndarray
    feature_names: tuple[str, ...]

    def __post_init__(self):
        shape = self.means.shape
        if len(shape) != 2 or self.variances.shape != shape or self.priors.shape != shape[:1]:
            raise DataError(
                f"means {shape} and variances {self.variances.shape} must be (classes, "
                f"features) and priors {self.priors.shape} one entry per class"
            )
        if not ((self.priors >= 0) & (self.priors <= 1)).all():
            raise DataError("class priors must lie in [0, 1]")
        if not (self.variances > 0).all():
            raise DataError("class variances must be positive")

    @property
    def n_features(self) -> int:
        return self.means.shape[1]

    @property
    def n_classes(self) -> int:
        return self.means.shape[0]

    def predict_proba(self, X) -> np.ndarray:
        X = self._coerce(X)
        # log joint per class, accumulated in log space
        scores = np.empty((len(X), self.n_classes))
        for c in range(self.n_classes):
            diff = X - self.means[c]
            log_like = -0.5 * (
                np.log(2.0 * np.pi * self.variances[c]) + diff * diff / self.variances[c]
            ).sum(axis=1)
            scores[:, c] = np.log(self.priors[c]) + log_like
        return softmax(scores)


def fit_gnb(train: Frame, cfg: GnbConfig | None = None) -> GaussianNBModel:
    """Per-class Gaussian likelihoods with a shared variance floor of
    ``var_smoothing`` times the largest overall feature variance."""
    var_smoothing = (cfg or GnbConfig()).var_smoothing
    X, y, n_classes = train.matrix, train.labels, train.target.n_classes
    counts = np.bincount(y, minlength=n_classes)
    empty = [int(c) for c in np.nonzero(counts == 0)[0]]
    if empty:
        raise DataError(f"classes with no training rows: {empty}")
    means = np.vstack([X[y == c].mean(axis=0) for c in range(n_classes)])
    variances = np.vstack([X[y == c].var(axis=0) for c in range(n_classes)])
    floor = var_smoothing * float(X.var(axis=0).max())
    if floor <= 0.0:
        floor = var_smoothing
    variances = np.maximum(variances, floor)
    return GaussianNBModel(means, variances, counts / len(y), train.column_names)


# ------------------------------------------------------------ CART tree


@dataclass(frozen=True)
class TreeConfig(Bounded):
    max_depth: PosInt | None = None
    min_leaf: PosInt = 1
    criterion: Literal["gini", "entropy"] = "gini"


@dataclass(frozen=True)
class TreeModel(FlatTree, Classifier):
    """CART tree as flat preorder arrays (leaf thresholds NaN).

    ``counts[i]`` is the training class histogram at node i; leaves predict
    its Laplace-smoothed frequencies (count+1)/(total+C).
    """

    counts: np.ndarray
    n_classes: int
    feature_names: tuple[str, ...]

    def __post_init__(self):
        if self.counts.shape != (len(self.feature), self.n_classes):
            raise DataError(
                f"counts {self.counts.shape} must be one row per node and one column per "
                f"class, ({len(self.feature)}, {self.n_classes})"
            )
        if not (self.counts >= 0).all():
            raise DataError("class counts must be non-negative")

    @property
    def node_proba(self) -> np.ndarray:
        c = self.counts
        return (c + 1.0) / (c.sum(axis=1, keepdims=True) + self.n_classes)

    def predict_proba(self, X) -> np.ndarray:
        return self.node_proba[self.route(self._coerce(X))]


def _grow_cart(data: Presorted, y, n_classes, names, cfg: TreeConfig, pick=None) -> TreeModel:
    stat = CountStat(y, n_classes, cfg.criterion, cfg.min_leaf)
    flat, _, totals, _ = grow(data, stat, cfg.max_depth, pick)
    return TreeModel(
        flat.feature,
        flat.threshold,
        flat.left,
        flat.right,
        np.vstack([counts for counts, _ in totals]),
        n_classes,
        names,
    )


def fit_tree(train: Frame, cfg: TreeConfig | None = None) -> TreeModel:
    """Greedy CART over midpoints of sorted distinct values; splits only on a
    strict impurity decrease."""
    cfg = cfg or TreeConfig()
    X, y, n_classes = train.matrix, train.labels, train.target.n_classes
    return _grow_cart(presort(X), y, n_classes, train.column_names, cfg)


# --------------------------------------------------------- random forest


@dataclass(frozen=True)
class ForestConfig(TreeConfig):
    """Tree settings plus the ensemble's; ``mtry`` <= d is checked at fit time."""

    n_trees: PosInt = 100
    mtry: PosInt | None = None
    seed: NonNegInt = 0
    bootstrap: bool = True


@dataclass(frozen=True)
class ForestModel(Classifier):
    trees: tuple[TreeModel, ...]
    n_classes: int
    feature_names: tuple[str, ...]

    @cached_property
    def stack(self) -> TreeStack:
        return TreeStack(self.trees)

    def predict_proba(self, X) -> np.ndarray:
        """Mean of the trees' leaf frequencies, summed in tree order."""
        X = self._coerce(X)
        proba = np.concatenate([t.node_proba for t in self.trees])
        out = np.zeros((len(X), self.n_classes))
        for start, nodes in self.stack.blocks(X):
            block = out[start : start + len(nodes)]
            for t in range(len(self.trees)):
                block += proba[nodes[:, t]]
        return out / len(self.trees)


def fit_forest(train: Frame, cfg: ForestConfig | None = None) -> ForestModel:
    """Bootstrap forest of CART trees, each split drawn from ``mtry`` random
    features (default round(sqrt(d))). Per-tree seeds are pre-drawn, so any
    training schedule gives the same forest."""
    cfg = cfg or ForestConfig()
    X, y, n_classes = train.matrix, train.labels, train.target.n_classes
    n, d = X.shape
    mtry = max(1, int(round(np.sqrt(d)))) if cfg.mtry is None else cfg.mtry
    if mtry > d:
        raise DataError(f"mtry must be in [1, {d}], got {mtry}")

    seeds = np.random.SeedSequence(cfg.seed).spawn(cfg.n_trees)
    trees = []
    for ss in seeds:
        rng = np.random.default_rng(ss)
        rows = rng.integers(0, n, size=n) if cfg.bootstrap else np.arange(n)
        pick = None
        if mtry < d:
            def pick(r=rng):
                return np.sort(r.choice(d, size=mtry, replace=False))
        trees.append(_grow_cart(presort(X[rows]), y[rows], n_classes, train.column_names, cfg, pick))
    return ForestModel(tuple(trees), n_classes, train.column_names)
