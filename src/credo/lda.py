"""Linear discriminant analysis, used two ways.

As a reducer: project rows onto the directions that maximize between-class
scatter relative to within-class scatter, solving S_b v = lambda (S_w + r I) v
at most min(C-1, d) useful directions exist because rank(S_b) <= C-1.
As a classifier: Gaussian class densities with a shared covariance estimated
from S_w, giving linear discriminant scores that softmax to probabilities.

The generalized eigenproblem is symmetrized through a Cholesky factor of the
regularized within-class scatter, so a plain symmetric eigensolver does the
work. One-hot designs make S_w rank-deficient, hence the scaled ridge default.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np
from scipy.linalg import solve_triangular

from .errors import DataError, LdaClampWarning, NumericError
from .frame import Frame, numeric_frame


@dataclass(frozen=True)
class ProjectionLDA:
    """Fitted discriminant basis plus the sufficient statistics behind it.

    ``components`` columns are normalized against the regularized
    within-class scatter (exactly S_w-normalized when ridge is 0) and ordered
    by descending eigenvalue, each flipped so its largest-magnitude entry is
    positive.
    """

    feature_names: tuple[str, ...]
    class_means: np.ndarray
    grand_mean: np.ndarray
    within_scatter: np.ndarray
    between_scatter: np.ndarray
    components: np.ndarray
    eigenvalues: np.ndarray
    class_priors: np.ndarray
    ridge: float
    n_train: int
    n_requested: int

    @property
    def n_components(self) -> int:
        return self.components.shape[1]

    @property
    def clamped(self) -> bool:
        return self.n_requested > self.n_components


def scatter_matrices(X: np.ndarray, y: np.ndarray, n_classes: int):
    """Within/between scatter, class means, grand mean and counts."""
    n, d = X.shape
    grand_mean = X.mean(axis=0)
    means = np.empty((n_classes, d))
    counts = np.empty(n_classes, dtype=np.int64)
    S_w = np.zeros((d, d))
    S_b = np.zeros((d, d))
    for c in range(n_classes):
        Xc = X[y == c]
        counts[c] = len(Xc)
        means[c] = Xc.mean(axis=0)
        centered = Xc - means[c]
        S_w += centered.T @ centered
        gap = means[c] - grand_mean
        S_b += counts[c] * np.outer(gap, gap)
    return S_w, S_b, means, grand_mean, counts


@dataclass(frozen=True)
class LdaConfig:
    n_components: int | None = None
    ridge: float | None = None

    def __post_init__(self):
        if self.n_components is not None and self.n_components < 1:
            raise DataError(f"n_components must be >= 1, got {self.n_components}")
        if self.ridge is not None and self.ridge < 0:
            raise DataError(f"ridge must be >= 0, got {self.ridge}")


def fit_lda(
    train: Frame, n_components: int | None = None, ridge: float | None = None
) -> ProjectionLDA:
    """Fit the discriminant basis on an all-numeric labeled frame.

    ``n_components`` defaults to min(C-1, d) and is clamped to it with a
    :class:`LdaClampWarning`; ``ridge`` defaults to 1e-6 * trace(S_w)/d and
    must be positive whenever S_w is singular.
    """
    LdaConfig(n_components, ridge)  # raises on out-of-bound values
    if train.target is None:
        raise DataError("fit_lda needs an encoded target")
    X = train.feature_matrix()
    y = train.labels
    n_classes = train.target.n_classes
    counts = np.bincount(y, minlength=n_classes)
    if np.count_nonzero(counts) < 2:
        raise DataError("fit_lda needs at least 2 classes present")
    thin = [int(c) for c in np.nonzero(counts < 2)[0]]
    if thin:
        raise DataError(f"classes with fewer than 2 rows: {thin}")

    n, d = X.shape
    S_w, S_b, means, grand_mean, counts = scatter_matrices(X, y, n_classes)
    if ridge is None:
        ridge = 1e-6 * float(np.trace(S_w)) / d

    cap = min(n_classes - 1, d)
    if n_components is None:
        n_components = cap
    m = min(n_components, cap)
    if n_components > cap:
        warnings.warn(
            f"requested {n_components} components, capped at {m} "
            f"(min of classes-1 and feature count)",
            LdaClampWarning,
        )

    A = S_w + ridge * np.eye(d)
    A = 0.5 * (A + A.T)
    try:
        L = np.linalg.cholesky(A)
    except np.linalg.LinAlgError:
        raise NumericError(
            "within-class scatter is singular; refit with a positive ridge"
        ) from None
    # symmetrized pencil: M = L^-1 S_b L^-T shares eigenvalues with the
    # generalized problem, and v = L^-T u recovers its eigenvectors
    tmp = solve_triangular(L, S_b, lower=True)
    M = solve_triangular(L, tmp.T, lower=True)
    M = 0.5 * (M + M.T)
    evals, U = np.linalg.eigh(M)
    top = np.argsort(evals)[::-1][:m]
    eigenvalues = np.maximum(evals[top], 0.0)
    V = solve_triangular(L.T, U[:, top], lower=False)

    # sign convention: the largest-magnitude entry of each column is positive
    flip = np.sign(V[np.abs(V).argmax(axis=0), np.arange(m)])
    flip[flip == 0] = 1.0
    V = V * flip

    return ProjectionLDA(
        feature_names=train.column_names,
        class_means=means,
        grand_mean=grand_mean,
        within_scatter=S_w,
        between_scatter=S_b,
        components=V,
        eigenvalues=eigenvalues,
        class_priors=counts / n,
        ridge=float(ridge),
        n_train=n,
        n_requested=n_components,
    )


def _check_features(p: ProjectionLDA, f: Frame) -> np.ndarray:
    if f.column_names != p.feature_names:
        raise DataError(
            f"frame features {list(f.column_names)} do not match the fitted "
            f"features {list(p.feature_names)}"
        )
    return f.feature_matrix()


def transform_lda(p: ProjectionLDA, f: Frame) -> Frame:
    """Project rows to the discriminant space; columns LD1..LDm."""
    X = _check_features(p, f)
    Z = (X - p.grand_mean) @ p.components
    names = [f"LD{i + 1}" for i in range(p.n_components)]
    return numeric_frame(Z, names, target=f.target)


def predict_lda(p: ProjectionLDA, f: Frame) -> np.ndarray:
    """Class probabilities from linear Gaussian discriminants.

    Shared covariance S_w/(n - C) + ridge I; scores
    x' Sigma^-1 mu_c - mu_c' Sigma^-1 mu_c / 2 + log prior_c, softmaxed.
    """
    X = _check_features(p, f)
    n_classes, d = p.class_means.shape
    sigma = p.within_scatter / (p.n_train - n_classes) + p.ridge * np.eye(d)
    try:
        W = np.linalg.solve(sigma, p.class_means.T)
    except np.linalg.LinAlgError:
        raise NumericError("shared covariance is singular; use a positive ridge") from None
    offsets = -0.5 * np.einsum("cd,dc->c", p.class_means, W) + np.log(p.class_priors)
    scores = X @ W + offsets
    scores -= scores.max(axis=1, keepdims=True)
    e = np.exp(scores)
    return e / e.sum(axis=1, keepdims=True)
