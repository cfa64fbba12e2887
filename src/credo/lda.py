"""Linear discriminant analysis, used two ways.

As a reducer: project rows onto the directions that maximize between-class
scatter relative to within-class scatter, solving S_b v = lambda (S_w + r I) v
at most min(C-1, d) useful directions exist because rank(S_b) <= C-1.
As a classifier: Gaussian class densities with a shared covariance estimated
from S_w, giving linear discriminant scores that softmax to probabilities.
One fitted :class:`ProjectionLDA` is both: the reducer's basis and the
zoo's ``lda`` model.

The generalized eigenproblem is symmetrized through a Cholesky factor of the
regularized within-class scatter, so a plain symmetric eigensolver does the
work. One-hot designs make S_w rank-deficient, hence the scaled ridge default.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from functools import cached_property
from typing import Annotated

import numpy as np

from .baselines import Classifier, softmax
from .bounds import Bounded, NonNegFloat, PosInt, Range, Shape
from .errors import DataError, LdaClampWarning, NumericError
from .frame import Frame


@dataclass(frozen=True)
class ProjectionLDA(Bounded, Classifier):
    """Fitted discriminant basis plus the sufficient statistics behind it,
    and the shared-covariance Gaussian classifier they define.

    ``components`` columns are normalized against the regularized
    within-class scatter (exactly S_w-normalized when ridge is 0) and ordered
    by descending eigenvalue, each flipped so its largest-magnitude entry is
    positive.
    """

    feature_names: tuple[str, ...]
    class_means: Annotated[np.ndarray, Shape("C", "d")]
    grand_mean: Annotated[np.ndarray, Shape("d")]
    within_scatter: Annotated[np.ndarray, Shape("d", "d")]
    between_scatter: Annotated[np.ndarray, Shape("d", "d")]
    components: Annotated[np.ndarray, Shape("d", "m")]
    eigenvalues: Annotated[np.ndarray, Shape("m")]
    class_priors: Annotated[np.ndarray, Shape("C"), Range(0, 1)]
    ridge: NonNegFloat
    n_train: int
    n_requested: int

    def __post_init__(self):
        super().__post_init__()
        if self.n_train <= self.n_classes:
            raise DataError(f"n_train must exceed the class count {self.n_classes}, got {self.n_train}")

    @property
    def n_components(self) -> int:
        return self.components.shape[1]

    @property
    def n_classes(self) -> int:
        return len(self.class_priors)

    @cached_property
    def discriminant(self) -> tuple[np.ndarray, np.ndarray]:
        """Weights W and offsets b of the class scores x'W + b, solved once.

        Shared covariance Sigma = S_w/(n - C) + ridge I; column c of W is
        Sigma^-1 mu_c and b_c = -mu_c' Sigma^-1 mu_c / 2 + log prior_c.
        """
        n_classes, d = self.class_means.shape
        sigma = self.within_scatter / (self.n_train - n_classes) + self.ridge * np.eye(d)
        try:
            W = np.linalg.solve(sigma, self.class_means.T)
        except np.linalg.LinAlgError:
            raise NumericError("shared covariance is singular; use a positive ridge") from None
        return W, -0.5 * np.einsum("cd,dc->c", self.class_means, W) + np.log(self.class_priors)

    def predict_proba(self, X) -> np.ndarray:
        """Softmax of the linear discriminant scores of the rows of X."""
        W, offsets = self.discriminant
        return softmax(self._coerce(X) @ W + offsets)


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
class LdaConfig(Bounded):
    n_components: PosInt | None = None
    ridge: NonNegFloat | None = None


def fit_lda(train: Frame, cfg: LdaConfig | None = None) -> ProjectionLDA:
    """Fit the discriminant basis on an all-numeric labeled frame.

    ``n_components`` defaults to min(C-1, d) and is clamped to it with a
    :class:`LdaClampWarning`; ``ridge`` defaults to 1e-6 * trace(S_w)/d and
    must be positive whenever S_w is singular.
    """
    cfg = cfg or LdaConfig()
    n_components, ridge = cfg.n_components, cfg.ridge
    X, y, n_classes = train.matrix, train.labels, train.target.n_classes
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
    # generalized problem, and v = L^-T u recovers its eigenvectors. The
    # general solver does the triangular solves, so fitting needs numpy alone
    tmp = np.linalg.solve(L, S_b)
    M = np.linalg.solve(L, tmp.T)
    M = 0.5 * (M + M.T)
    evals, U = np.linalg.eigh(M)
    top = np.argsort(evals)[::-1][:m]
    eigenvalues = np.maximum(evals[top], 0.0)
    V = np.linalg.solve(L.T, U[:, top])

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


def transform_lda(p: ProjectionLDA, f: Frame) -> Frame:
    """Project rows to the discriminant space; columns LD1..LDm."""
    Z = (p._coerce(f) - p.grand_mean) @ p.components
    names = tuple(f"LD{i + 1}" for i in range(p.n_components))
    return Frame(names, Z, f.target)
