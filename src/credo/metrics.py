"""Multiclass evaluation: accuracy, sensitivity, specificity, G-mean,
H-measure and F1.

Sensitivity, specificity and F1 are macro averages of per-class one-vs-rest
rates. G-mean is sqrt(macro sensitivity x macro specificity), computed on the
averaged pair rather than averaging per-class G-means. The H-measure is
Hand's coherent alternative to AUC: expected minimum misclassification loss
over a Beta(2, 2) distribution of cost ratios (Hand, Machine Learning
2009), evaluated on the ROC convex hull and normalized against the best
trivial (prior-only) classifier, then macro-averaged over one-vs-rest
problems. The severity distribution is fixed, not a setting.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, replace

import numpy as np

from .errors import DataError, MetricConventionWarning

# Beta(a, b) severity parameters of the H-measure's cost-ratio distribution
BETA_A, BETA_B = 2.0, 2.0


def confusion(true_labels, predicted_labels, n_classes: int) -> np.ndarray:
    """C x C count matrix; rows are true classes, columns predicted."""
    y = np.asarray(true_labels, dtype=np.int64)
    p = np.asarray(predicted_labels, dtype=np.int64)
    if y.size == 0:
        raise DataError("cannot build a confusion matrix from no rows")
    if y.shape != p.shape:
        raise DataError(f"label lengths differ: {y.shape} vs {p.shape}")
    for name, arr in (("true", y), ("predicted", p)):
        if arr.min() < 0 or arr.max() >= n_classes:
            raise DataError(f"{name} label outside [0, {n_classes})")
    cm = np.zeros((n_classes, n_classes), dtype=np.int64)
    np.add.at(cm, (y, p), 1)
    return cm


@dataclass(frozen=True)
class MetricReport:
    """The six scores plus the per-class one-vs-rest breakdown.

    All values are fractions in [0, 1]. ``h_measure`` is None until filled in
    by :func:`h_measure` (it needs probabilities, not a confusion matrix).
    ``conventions`` lists every 0/0 rate that was set to 1 by convention.
    """

    accuracy: float
    sensitivity: float
    specificity: float
    g_mean: float
    f1: float
    h_measure: float | None
    averaging: str
    per_class_tpr: np.ndarray
    per_class_tnr: np.ndarray
    per_class_f1: np.ndarray
    support: np.ndarray
    conventions: tuple[str, ...]

    def to_dict(self) -> dict:
        """JSON-friendly view; scalar scores as fractions."""
        return {
            "accuracy": self.accuracy,
            "sensitivity": self.sensitivity,
            "specificity": self.specificity,
            "g_mean": self.g_mean,
            "h_measure": self.h_measure,
            "f1": self.f1,
            "averaging": self.averaging,
            "per_class": {
                "tpr": self.per_class_tpr.tolist(),
                "tnr": self.per_class_tnr.tolist(),
                "f1": self.per_class_f1.tolist(),
                "support": self.support.tolist(),
            },
            "conventions": list(self.conventions),
        }


def _rate(numer: np.ndarray, denom: np.ndarray, kind: str, notes: list[str]) -> np.ndarray:
    """Elementwise numer/denom with the 0/0 -> 1 convention, each use noted."""
    out = np.ones_like(numer, dtype=np.float64)
    ok = denom > 0
    out[ok] = numer[ok] / denom[ok]
    for c in np.nonzero(~ok)[0]:
        notes.append(f"class {c}: {kind} 0/0 set to 1 by convention")
    return out


def basic_metrics(cm: np.ndarray) -> MetricReport:
    """All scores except the H-measure, from a confusion matrix."""
    cm = np.asarray(cm)
    total = int(cm.sum())
    if total <= 0:
        raise DataError("confusion matrix is empty")
    if (cm < 0).any():
        raise DataError("confusion matrix has negative counts")
    tp = np.diag(cm).astype(np.float64)
    row = cm.sum(axis=1).astype(np.float64)
    col = cm.sum(axis=0).astype(np.float64)
    fn = row - tp
    fp = col - tp
    tn = total - tp - fn - fp

    notes: list[str] = []
    tpr = _rate(tp, tp + fn, "TPR", notes)
    tnr = _rate(tn, tn + fp, "TNR", notes)
    f1 = _rate(2 * tp, 2 * tp + fp + fn, "F1", notes)
    for note in notes:
        warnings.warn(note, MetricConventionWarning)

    sens = float(tpr.mean())
    spec = float(tnr.mean())
    return MetricReport(
        accuracy=float(tp.sum()) / total,
        sensitivity=sens,
        specificity=spec,
        g_mean=float(np.sqrt(sens * spec)),
        f1=float(f1.mean()),
        h_measure=None,
        averaging="macro",
        per_class_tpr=tpr,
        per_class_tnr=tnr,
        per_class_f1=f1,
        support=row.astype(np.int64),
        conventions=tuple(notes),
    )


def _roc_points(scores: np.ndarray, positive: np.ndarray) -> np.ndarray:
    """ROC step points (fpr, tpr) from (0,0) to (1,1), score ties grouped."""
    n1 = int(positive.sum())
    n0 = len(positive) - n1
    order = np.argsort(-scores, kind="stable")
    y = positive[order]
    tp = np.cumsum(y)
    fp = np.cumsum(1 - y)
    s = scores[order]
    last = np.nonzero(np.diff(s))[0]
    bounds = np.append(last, len(s) - 1)
    pts = np.empty((len(bounds) + 1, 2))
    pts[0] = (0.0, 0.0)
    pts[1:, 0] = fp[bounds] / n0
    pts[1:, 1] = tp[bounds] / n1
    return pts


def _upper_hull(points: np.ndarray) -> np.ndarray:
    """Concave majorant of ROC points, left to right (monotone chain)."""
    hull: list[list[float]] = []
    for p in points.tolist():  # Python floats: the same IEEE arithmetic, without numpy scalars
        while len(hull) >= 2:
            a, b = hull[-2], hull[-1]
            cross = (b[0] - a[0]) * (p[1] - a[1]) - (b[1] - a[1]) * (p[0] - a[0])
            if cross >= 0:  # b lies on or under chord a->p
                hull.pop()
            else:
                break
        hull.append(p)
    return np.array(hull)


def _betainc(a: int, b: int, x: np.ndarray) -> np.ndarray:
    """Regularized incomplete beta I_x(a, b) for positive integers a and b:
    the chance of at least a successes in a + b - 1 Bernoulli(x) trials,
    sum_{j=a}^{a+b-1} C(a+b-1, j) x^j (1-x)^(a+b-1-j).

    Powers are built by repeated multiplication and the terms added in
    ascending j, so each element sees the same IEEE operations whatever the
    shape of ``x``.
    """
    n = a + b - 1
    x = np.asarray(x, dtype=np.float64)
    y = 1.0 - x
    x_pow, y_pow = [np.ones_like(x)], [np.ones_like(x)]
    for _ in range(n):
        x_pow.append(x_pow[-1] * x)
        y_pow.append(y_pow[-1] * y)
    total = np.zeros_like(x)
    for j in range(a, n + 1):
        total += math.comb(n, j) * (x_pow[j] * y_pow[n - j])
    return total


def _beta_integrals(u: np.ndarray, v: np.ndarray):
    """Integrals of c and of (1 - c) times the Beta(c; BETA_A, BETA_B)
    density over each interval [u_i, v_i].

    c Beta(c; a, b) = a/(a+b) Beta(c; a+1, b), and likewise for 1 - c, so
    both are differences of :func:`_betainc`, which needs integer shapes.
    """
    if not all(float(s).is_integer() and s >= 1 for s in (BETA_A, BETA_B)):
        raise ValueError(f"Beta severity shapes must be positive integers, got ({BETA_A}, {BETA_B})")
    a, b = int(BETA_A), int(BETA_B)
    c_part = a / (a + b) * (_betainc(a + 1, b, v) - _betainc(a + 1, b, u))
    rest = b / (a + b) * (_betainc(a, b + 1, v) - _betainc(a, b + 1, u))
    return c_part, rest


def binary_h_measure(scores: np.ndarray, positive: np.ndarray) -> float:
    """Hand's H-measure for one binary problem.

    ``positive`` is a 0/1 indicator; both classes must be present.
    """
    positive = np.asarray(positive, dtype=np.int64)
    scores = np.asarray(scores, dtype=np.float64)
    n = len(positive)
    n1 = int(positive.sum())
    n0 = n - n1
    if n1 == 0 or n0 == 0:
        raise DataError("binary H-measure needs both classes present")
    pi0 = n0 / n
    pi1 = n1 / n

    hull = _upper_hull(_roc_points(scores, positive))
    # cost where adjacent hull vertices i and i+1 swap optimality; decreasing in i
    dfpr = np.diff(hull[:, 0])
    dtpr = np.diff(hull[:, 1])
    switch = pi1 * dtpr / (pi0 * dfpr + pi1 * dtpr)
    # vertex i minimizes the loss for c in [lo_i, hi_i]
    hi = np.concatenate([[1.0], switch])
    lo = np.concatenate([switch, [0.0]])

    # one _betainc call per term: the hull intervals, then the reference's
    # [0, pi1] (always positive, loss c*pi0) and [pi1, 1] (always negative,
    # loss (1-c)*pi1)
    c_part, rest = _beta_integrals(np.append(lo, (0.0, pi1)), np.append(hi, (pi1, 1.0)))
    numer = 0.0
    for (fpr, tpr), u, v, c_int, rest_int in zip(hull, lo, hi, c_part, rest):
        if v <= u:
            continue  # collinear vertices can produce empty intervals
        numer += pi0 * fpr * c_int
        numer += pi1 * (1.0 - tpr) * rest_int
    denom = pi0 * c_part[-2] + pi1 * rest[-1]
    return 1.0 - numer / denom


def h_measure(true_labels, scores: np.ndarray) -> float:
    """Macro H-measure over one-vs-rest problems.

    ``scores`` is the (n, C) row-stochastic probability matrix; column c is
    the score for class c against the rest. Classes absent from the truth (or
    covering all of it) have no binary problem and are skipped.
    """
    y = np.asarray(true_labels, dtype=np.int64)
    scores = np.asarray(scores, dtype=np.float64)
    if scores.ndim != 2 or scores.shape[0] != len(y):
        raise DataError("scores must be (n_rows, n_classes)")
    if len(np.unique(y)) < 2:
        raise DataError("H-measure needs at least 2 distinct labels")
    if (scores < -1e-9).any() or np.abs(scores.sum(axis=1) - 1.0).max() > 1e-6:
        raise DataError("scores must be row-stochastic probabilities")

    values = []
    for c in range(scores.shape[1]):
        positive = (y == c).astype(np.int64)
        if positive.sum() not in (0, len(y)):
            values.append(binary_h_measure(scores[:, c], positive))
    return float(np.mean(values))


def evaluate(true_labels, predicted_labels, proba: np.ndarray, n_classes: int) -> MetricReport:
    """Full report: confusion-based scores plus the macro H-measure."""
    report = basic_metrics(confusion(true_labels, predicted_labels, n_classes))
    return replace(report, h_measure=h_measure(true_labels, proba))
