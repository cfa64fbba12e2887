"""Non-boosted, non-neural classifiers: multinomial logistic regression,
Gaussian naive Bayes, CART decision trees, and a bootstrap random forest.

Each ``fit_*`` takes its family's frozen config, or that config's fields as
keyword arguments. Every fitted model follows the same contract:
``predict_proba`` maps a feature matrix (or all-numeric frame) to a
row-stochastic C-column matrix and ``predict`` takes the argmax, breaking
ties toward the smallest class index. Models are immutable after fitting;
prediction is pure.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DataError, NumericError
from .frame import Frame, training_arrays


def softmax(scores: np.ndarray) -> np.ndarray:
    z = scores - scores.max(axis=1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=1, keepdims=True)


def as_matrix(X) -> np.ndarray:
    if isinstance(X, Frame):
        X = X.feature_matrix()
    X = np.asarray(X, dtype=np.float64)
    if X.ndim != 2:
        raise DataError("expected a 2-D feature matrix")
    return X


class _PredictMixin:
    def _coerce(self, X) -> np.ndarray:
        X = as_matrix(X)
        if X.shape[1] != self.n_features:
            raise DataError(
                f"model expects {self.n_features} features, got {X.shape[1]}"
            )
        return X

    def predict(self, X) -> np.ndarray:
        # np.argmax returns the first maximal index, the required tie-break
        return self.predict_proba(X).argmax(axis=1)


# ------------------------------------------------- logistic regression


@dataclass(frozen=True)
class LogregConfig:
    l2: float = 1e-4
    max_iter: int = 500
    tol: float = 1e-6

    def __post_init__(self):
        if min(self.l2, self.max_iter, self.tol) < 0:
            raise DataError("l2, max_iter and tol must be >= 0")


@dataclass(frozen=True)
class LogisticModel(_PredictMixin):
    weights: np.ndarray
    bias: np.ndarray
    converged: bool
    n_iter: int
    loss_history: np.ndarray  # initial loss plus one entry per accepted step

    @property
    def n_features(self) -> int:
        return self.weights.shape[0]

    @property
    def n_classes(self) -> int:
        return self.weights.shape[1]

    def predict_proba(self, X) -> np.ndarray:
        X = self._coerce(X)
        return softmax(X @ self.weights + self.bias)


def logreg_objective(W, b, X, Y, l2):
    """Mean cross-entropy plus (l2/2)||W||^2 and its gradients.

    ``Y`` is the one-hot label matrix; the bias is not penalized.
    """
    n = len(X)
    P = softmax(X @ W + b)
    # clip only inside the log; the gradient uses exact P
    loss = -np.mean(np.log(np.clip(P[np.arange(n), Y.argmax(axis=1)], 1e-300, None)))
    loss += 0.5 * l2 * float((W * W).sum())
    R = (P - Y) / n
    return loss, X.T @ R + l2 * W, R.sum(axis=0)


def fit_logreg(train: Frame, cfg: LogregConfig | None = None, **params) -> LogisticModel:
    """Full-batch gradient descent with Armijo backtracking line search.

    Stops when the gradient max-norm drops below ``tol`` (converged) or at
    ``max_iter``; the flag is recorded on the model.
    """
    cfg = cfg or LogregConfig(**params)
    l2, max_iter, tol = cfg.l2, cfg.max_iter, cfg.tol
    X, y, n_classes = training_arrays(train)
    n, d = X.shape
    Y = np.zeros((n, n_classes))
    Y[np.arange(n), y] = 1.0

    W = np.zeros((d, n_classes))
    b = np.zeros(n_classes)
    loss, gW, gb = logreg_objective(W, b, X, Y, l2)
    history = [loss]
    step = 1.0
    converged = False
    it = 0
    for it in range(1, max_iter + 1):
        if not np.isfinite(loss):
            raise NumericError(f"logistic regression loss non-finite at iteration {it}")
        gnorm = max(np.abs(gW).max(), np.abs(gb).max())
        if gnorm < tol:
            converged = True
            break
        g2 = float((gW * gW).sum() + (gb * gb).sum())
        step = min(step * 2.0, 1e6)  # allow the step to recover between iterations
        accepted = False
        for _ in range(60):
            W_new = W - step * gW
            b_new = b - step * gb
            new_loss, gW_new, gb_new = logreg_objective(W_new, b_new, X, Y, l2)
            if np.isfinite(new_loss) and new_loss <= loss - 1e-4 * step * g2:
                W, b, loss, gW, gb = W_new, b_new, new_loss, gW_new, gb_new
                history.append(loss)
                accepted = True
                break
            step *= 0.5
        if not accepted:
            break  # no descent direction progress left at float precision
    else:
        it = max_iter
    return LogisticModel(W, b, converged, it, np.array(history))


# ---------------------------------------------------- Gaussian naive Bayes


@dataclass(frozen=True)
class GnbConfig:
    var_smoothing: float = 1e-9

    def __post_init__(self):
        if self.var_smoothing < 0:
            raise DataError(f"var_smoothing must be >= 0, got {self.var_smoothing}")


@dataclass(frozen=True)
class GaussianNBModel(_PredictMixin):
    means: np.ndarray
    variances: np.ndarray
    priors: np.ndarray

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


def fit_gnb(train: Frame, cfg: GnbConfig | None = None, **params) -> GaussianNBModel:
    """Per-class Gaussian likelihoods with a shared variance floor of
    ``var_smoothing`` times the largest overall feature variance."""
    var_smoothing = (cfg or GnbConfig(**params)).var_smoothing
    X, y, n_classes = training_arrays(train)
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
    return GaussianNBModel(means, variances, counts / len(y))


# ------------------------------------------------------------ CART tree


@dataclass(frozen=True)
class TreeConfig:
    max_depth: int | None = None
    min_leaf: int = 1
    criterion: str = "gini"

    def __post_init__(self):
        if self.max_depth is not None and self.max_depth < 1:
            raise DataError(f"max_depth must be >= 1, got {self.max_depth}")
        if self.min_leaf < 1:
            raise DataError(f"min_leaf must be >= 1, got {self.min_leaf}")
        if self.criterion not in ("gini", "entropy"):
            raise DataError(f"criterion must be gini or entropy, got {self.criterion!r}")


@dataclass(frozen=True)
class TreeNode:
    """Split node (feature, threshold, children) or leaf (counts only).

    Rows with x[feature] <= threshold go left. ``counts`` is the training
    class histogram at the node; leaves predict its Laplace-smoothed
    frequencies (count+1)/(total+C).
    """

    counts: np.ndarray
    feature: int = -1
    threshold: float = 0.0
    left: "TreeNode | None" = None
    right: "TreeNode | None" = None

    @property
    def is_leaf(self) -> bool:
        return self.feature < 0


def _impurity(counts: np.ndarray, criterion: str) -> np.ndarray:
    totals = counts.sum(axis=1, keepdims=True)
    p = counts / totals
    if criterion == "gini":
        return 1.0 - (p * p).sum(axis=1)
    logp = np.where(p > 0, np.log(np.where(p > 0, p, 1.0)), 0.0)
    return -(p * logp).sum(axis=1)


def _best_split(X, y, rows, features, n_classes, criterion, min_leaf):
    """Exhaustive midpoint search. Returns (gain, feature, threshold) or None.

    Ties break to the smallest feature index, then the smallest threshold.
    """
    ysub = y[rows]
    n = len(rows)
    parent_counts = np.bincount(ysub, minlength=n_classes).astype(np.float64)
    parent_imp = _impurity(parent_counts[None, :], criterion)[0]
    onehot = np.zeros((n, n_classes))
    best_gain, best_feature, best_threshold = 0.0, -1, 0.0
    for j in features:
        xs = X[rows, j]
        order = np.argsort(xs, kind="stable")
        xs = xs[order]
        if xs[0] == xs[-1]:
            continue
        onehot[:] = 0.0
        onehot[np.arange(n), ysub[order]] = 1.0
        cum = np.cumsum(onehot, axis=0)
        cut = np.nonzero(xs[:-1] != xs[1:])[0]
        left_n = cut + 1
        ok = (left_n >= min_leaf) & (n - left_n >= min_leaf)
        if not ok.any():
            continue
        cut, left_n = cut[ok], left_n[ok]
        left_counts = cum[cut]
        right_counts = parent_counts - left_counts
        gain = (
            parent_imp
            - (left_n / n) * _impurity(left_counts, criterion)
            - ((n - left_n) / n) * _impurity(right_counts, criterion)
        )
        k = int(np.argmax(gain))  # first max: smallest threshold wins ties
        if gain[k] > best_gain:
            best_gain = float(gain[k])
            best_feature = int(j)
            best_threshold = float(0.5 * (xs[cut[k]] + xs[cut[k] + 1]))
    if best_feature < 0:
        return None
    return best_gain, best_feature, best_threshold


def _grow(X, y, rows, depth, n_classes, criterion, max_depth, min_leaf, feature_picker):
    counts = np.bincount(y[rows], minlength=n_classes).astype(np.float64)
    node = TreeNode(counts=counts)
    if (max_depth is not None and depth >= max_depth) or np.count_nonzero(counts) <= 1:
        return node
    found = _best_split(X, y, rows, feature_picker(), n_classes, criterion, min_leaf)
    if found is None:
        return node
    _, feature, threshold = found
    go_left = X[rows, feature] <= threshold
    left = _grow(X, y, rows[go_left], depth + 1, n_classes, criterion, max_depth, min_leaf, feature_picker)
    right = _grow(X, y, rows[~go_left], depth + 1, n_classes, criterion, max_depth, min_leaf, feature_picker)
    return TreeNode(counts=counts, feature=feature, threshold=threshold, left=left, right=right)


def _route_proba(node: TreeNode, X: np.ndarray, idx: np.ndarray, out: np.ndarray) -> None:
    if node.is_leaf:
        c = node.counts
        out[idx] = (c + 1.0) / (c.sum() + len(c))
        return
    go_left = X[idx, node.feature] <= node.threshold
    _route_proba(node.left, X, idx[go_left], out)
    _route_proba(node.right, X, idx[~go_left], out)


@dataclass(frozen=True)
class TreeModel(_PredictMixin):
    root: TreeNode
    n_classes: int
    n_features: int

    def predict_proba(self, X) -> np.ndarray:
        X = self._coerce(X)
        out = np.empty((len(X), self.n_classes))
        _route_proba(self.root, X, np.arange(len(X)), out)
        return out


def fit_tree(train: Frame, cfg: TreeConfig | None = None, **params) -> TreeModel:
    """Greedy CART over midpoints of sorted distinct values; splits only on a
    strict impurity decrease."""
    cfg = cfg or TreeConfig(**params)
    X, y, n_classes = training_arrays(train)
    d = X.shape[1]
    all_features = np.arange(d)
    root = _grow(
        X, y, np.arange(len(X)), 0, n_classes, cfg.criterion, cfg.max_depth, cfg.min_leaf,
        lambda: all_features,
    )
    return TreeModel(root, n_classes, d)


# --------------------------------------------------------- random forest


@dataclass(frozen=True)
class ForestConfig(TreeConfig):
    """Tree settings plus the ensemble's; ``mtry`` <= d is checked at fit time."""

    n_trees: int = 100
    mtry: int | None = None
    seed: int = 0
    bootstrap: bool = True

    def __post_init__(self):
        super().__post_init__()
        if self.n_trees < 1:
            raise DataError(f"n_trees must be >= 1, got {self.n_trees}")
        if self.mtry is not None and self.mtry < 1:
            raise DataError(f"mtry must be >= 1, got {self.mtry}")


@dataclass(frozen=True)
class ForestModel(_PredictMixin):
    trees: tuple[TreeModel, ...]
    n_classes: int
    n_features: int

    def predict_proba(self, X) -> np.ndarray:
        X = self._coerce(X)
        out = np.zeros((len(X), self.n_classes))
        for tree in self.trees:
            out += tree.predict_proba(X)
        return out / len(self.trees)


def fit_forest(train: Frame, cfg: ForestConfig | None = None, **params) -> ForestModel:
    """Bootstrap forest of CART trees, each split drawn from ``mtry`` random
    features (default round(sqrt(d))). Per-tree seeds are pre-drawn, so any
    training schedule gives the same forest."""
    cfg = cfg or ForestConfig(**params)
    X, y, n_classes = training_arrays(train)
    n, d = X.shape
    mtry = max(1, int(round(np.sqrt(d)))) if cfg.mtry is None else cfg.mtry
    if mtry > d:
        raise DataError(f"mtry must be in [1, {d}], got {mtry}")

    seeds = np.random.SeedSequence(cfg.seed).spawn(cfg.n_trees)
    trees = []
    all_features = np.arange(d)
    for ss in seeds:
        rng = np.random.default_rng(ss)
        rows = rng.integers(0, n, size=n) if cfg.bootstrap else np.arange(n)

        if mtry < d:
            def picker(r=rng):
                return np.sort(r.choice(d, size=mtry, replace=False))
        else:
            def picker():
                return all_features

        root = _grow(X, y, rows, 0, n_classes, cfg.criterion, cfg.max_depth, cfg.min_leaf, picker)
        trees.append(TreeModel(root, n_classes, d))
    return ForestModel(tuple(trees), n_classes, d)
