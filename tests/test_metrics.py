from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import betainc
from scipy.stats import beta as beta_dist

from credo import metrics
from credo.errors import DataError, MetricConventionWarning
from credo.metrics import (
    basic_metrics,
    binary_h_measure,
    confusion,
    evaluate,
    h_measure,
    _betainc,
    _roc_points,
    _upper_hull,
)


# ------------------------------------------------------------- confusion


def test_confusion_perfect_is_diagonal():
    y = np.array([0, 1, 2, 1, 0])
    cm = confusion(y, y, 3)
    assert np.array_equal(cm, np.diag([2, 2, 1]))


def test_confusion_hand_counted():
    y = [0, 0, 0, 1, 1, 1, 1, 2, 2, 2]
    p = [0, 0, 1, 1, 1, 2, 0, 2, 2, 2]
    cm = confusion(y, p, 3)
    assert cm.tolist() == [[2, 1, 0], [1, 2, 1], [0, 0, 3]]


def test_confusion_errors():
    with pytest.raises(DataError, match="no rows"):
        confusion([], [], 2)
    with pytest.raises(DataError, match="outside"):
        confusion([0, 2], [0, 1], 2)
    with pytest.raises(DataError, match="outside"):
        confusion([0, 1], [0, -1], 2)
    with pytest.raises(DataError, match="differ"):
        confusion([0, 1], [0], 2)


# --------------------------------------------------------- basic_metrics


def test_gmean_matches_reported_xgboost_row():
    # sqrt of the reported sensitivity/specificity pair lands on the
    # reported G-mean, confirming the averaged-pair definition
    assert np.sqrt(0.9910 * 0.9979) == pytest.approx(0.9945, abs=5e-4)


def test_gmean_matches_reported_forest_row():
    assert np.sqrt(0.9896 * 0.9889) == pytest.approx(0.9893, abs=5e-4)


def test_hand_computed_three_class_report():
    y = [0, 0, 0, 1, 1, 1, 1, 2, 2, 2]
    p = [0, 0, 1, 1, 1, 2, 0, 2, 2, 2]
    r = basic_metrics(confusion(y, p, 3))
    assert r.accuracy == pytest.approx(0.7)
    assert r.per_class_tpr.tolist() == pytest.approx([2 / 3, 1 / 2, 1.0])
    assert r.per_class_tnr.tolist() == pytest.approx([6 / 7, 5 / 6, 6 / 7])
    assert r.per_class_f1.tolist() == pytest.approx([2 / 3, 4 / 7, 6 / 7])
    assert r.sensitivity == pytest.approx(13 / 18)
    assert r.specificity == pytest.approx(107 / 126)
    assert r.f1 == pytest.approx(44 / 63)
    assert r.g_mean == pytest.approx(np.sqrt((13 / 18) * (107 / 126)))
    assert r.support.tolist() == [3, 4, 3]
    assert r.conventions == ()


def test_perfect_classifier_all_ones():
    y = np.array([0, 1, 2, 0, 1, 2])
    proba = np.eye(3)[y]
    r = evaluate(y, y, proba, 3)
    for value in (r.accuracy, r.sensitivity, r.specificity, r.g_mean, r.f1, r.h_measure):
        assert value == pytest.approx(1.0, abs=1e-12)


def test_accuracy_is_trace_over_total():
    rng = np.random.default_rng(0)
    y = rng.integers(0, 4, 200)
    p = rng.integers(0, 4, 200)
    cm = confusion(y, p, 4)
    r = basic_metrics(cm)
    assert r.accuracy == np.trace(cm) / cm.sum()


def test_gmean_squared_identity():
    rng = np.random.default_rng(1)
    y = rng.integers(0, 3, 100)
    p = rng.integers(0, 3, 100)
    r = basic_metrics(confusion(y, p, 3))
    assert r.g_mean**2 == pytest.approx(r.sensitivity * r.specificity, abs=1e-9)


def test_macro_f1_one_iff_diagonal():
    r = basic_metrics(np.diag([5, 3, 2]))
    assert r.f1 == 1.0
    r2 = basic_metrics(np.array([[4, 1], [0, 5]]))
    assert r2.f1 < 1.0


def test_zero_over_zero_convention_flagged():
    # class 1 never occurs in truth or prediction
    with pytest.warns(MetricConventionWarning):
        r = basic_metrics(confusion([0, 0], [0, 0], 2))
    assert r.per_class_tpr[1] == 1.0
    assert any("TPR" in c and "class 1" in c for c in r.conventions)
    # class 0 covers every row, so its TNR is 0/0 as well
    assert any("TNR" in c and "class 0" in c for c in r.conventions)


def test_permutation_invariance():
    rng = np.random.default_rng(7)
    y = rng.integers(0, 3, 300)
    scores = rng.dirichlet(np.ones(3), size=300)
    p = scores.argmax(axis=1)
    perm = np.array([2, 0, 1])  # class i renamed to perm[i]
    r1 = evaluate(y, p, scores, 3)
    inv = np.argsort(perm)
    r2 = evaluate(perm[y], perm[p], scores[:, inv], 3)
    assert r1.accuracy == pytest.approx(r2.accuracy, abs=1e-12)
    assert r1.sensitivity == pytest.approx(r2.sensitivity, abs=1e-12)
    assert r1.specificity == pytest.approx(r2.specificity, abs=1e-12)
    assert r1.f1 == pytest.approx(r2.f1, abs=1e-12)
    assert r1.h_measure == pytest.approx(r2.h_measure, abs=1e-12)


# ------------------------------------------------------------- h_measure


def _oracle_binary_h(scores, positive, a=2.0, b=2.0, n_grid=10001):
    """Brute force: minimum loss over every ROC threshold point, integrated
    on a dense cost grid with trapezoids."""
    scores = np.asarray(scores, float)
    positive = np.asarray(positive)
    n = len(positive)
    n1 = positive.sum()
    n0 = n - n1
    pi0, pi1 = n0 / n, n1 / n
    pts = [(0.0, 0.0)]
    for t in np.unique(scores):
        pred = scores >= t
        tpr = (pred & (positive == 1)).sum() / n1
        fpr = (pred & (positive == 0)).sum() / n0
        pts.append((fpr, tpr))
    pts = np.array(pts)
    c = np.linspace(0.0, 1.0, n_grid)
    w = beta_dist.pdf(c, a, b)
    loss = np.min(
        c[None, :] * pi0 * pts[:, 0][:, None]
        + (1 - c[None, :]) * pi1 * (1 - pts[:, 1][:, None]),
        axis=0,
    )
    numer = np.trapezoid(loss * w, c)
    denom = np.trapezoid(np.minimum(c * pi0, (1 - c) * pi1) * w, c)
    return 1.0 - numer / denom


def test_perfect_separation_h_is_one():
    positive = np.array([0, 0, 0, 1, 1, 1])
    scores = np.array([0.1, 0.2, 0.3, 0.7, 0.8, 0.9])
    assert binary_h_measure(scores, positive) == pytest.approx(1.0, abs=1e-12)


def test_random_scores_near_zero():
    rng = np.random.default_rng(42)
    n = 10_000
    y = np.repeat([0, 1], n // 2)
    p = rng.uniform(size=n)
    scores = np.column_stack([1 - p, p])
    assert h_measure(y, scores) <= 0.02


def test_monotone_transform_invariance():
    rng = np.random.default_rng(3)
    positive = rng.integers(0, 2, 80)
    positive[:2] = [0, 1]
    s = rng.uniform(size=80)
    h1 = binary_h_measure(s, positive)
    h2 = binary_h_measure(s**3 + 2 * s, positive)
    assert h1 == pytest.approx(h2, abs=1e-12)


@pytest.mark.parametrize("seed,n,p_pos", [(0, 10, 0.5), (1, 57, 0.2), (2, 200, 0.5), (3, 121, 0.8), (4, 200, 0.1)])
def test_hull_matches_grid_oracle(seed, n, p_pos):
    rng = np.random.default_rng(seed)
    positive = (rng.uniform(size=n) < p_pos).astype(int)
    positive[:2] = [0, 1]  # both classes present
    # partially informative scores with ties
    s = np.round(0.5 * positive + rng.uniform(size=n), 1)
    got = binary_h_measure(s, positive)
    want = _oracle_binary_h(s, positive)
    assert got == pytest.approx(want, abs=1e-6)


def _oracle_upper_hull(points):
    """The hull loop over numpy rows, as first written."""
    hull = []
    for p in points:
        while len(hull) >= 2:
            a, b = hull[-2], hull[-1]
            cross = (b[0] - a[0]) * (p[1] - a[1]) - (b[1] - a[1]) * (p[0] - a[0])
            if cross >= 0:
                hull.pop()
            else:
                break
        hull.append(p)
    return np.array(hull)


@settings(max_examples=60, deadline=None)
@given(
    st.integers(0, 2**32 - 1),
    st.integers(2, 300),
    st.sampled_from(["random", "ties", "equal"]),
)
def test_upper_hull_bytes_match_numpy_row_loop(seed, n, kind):
    rng = np.random.default_rng(seed)
    positive = (rng.uniform(size=n) < rng.uniform(0.05, 0.95)).astype(np.int64)
    positive[:2] = [0, 1]
    scores = {
        "random": rng.uniform(size=n) + 0.3 * positive,
        "ties": np.round(rng.uniform(size=n) + 0.5 * positive, 1),
        "equal": np.full(n, 0.25),
    }[kind]
    points = _roc_points(scores, positive)
    assert _upper_hull(points).tobytes() == _oracle_upper_hull(points).tobytes()


def _binary_h_per_vertex(scores, positive, a, b):
    """binary_h_measure with one scalar _betainc pair per hull vertex, as
    first written."""
    n1 = int(positive.sum())
    pi0, pi1 = (len(positive) - n1) / len(positive), n1 / len(positive)

    def c_int(u, v):
        return a / (a + b) * (_betainc(a + 1, b, v) - _betainc(a + 1, b, u))

    def rest_int(u, v):
        return b / (a + b) * (_betainc(a, b + 1, v) - _betainc(a, b + 1, u))

    hull = _upper_hull(_roc_points(scores, positive))
    dfpr, dtpr = np.diff(hull[:, 0]), np.diff(hull[:, 1])
    switch = pi1 * dtpr / (pi0 * dfpr + pi1 * dtpr)
    numer = 0.0
    for (fpr, tpr), u, v in zip(hull, np.concatenate([switch, [0.0]]), np.concatenate([[1.0], switch])):
        if v > u:
            numer += pi0 * fpr * c_int(u, v)
            numer += pi1 * (1.0 - tpr) * rest_int(u, v)
    return 1.0 - numer / (pi0 * c_int(0.0, pi1) + pi1 * rest_int(pi1, 1.0))


@settings(max_examples=60, deadline=None)
@given(
    st.integers(0, 2**32 - 1),
    st.integers(2, 300),
    st.sampled_from(["random", "ties", "equal"]),
    st.sampled_from([(2, 2), (1, 3), (4, 2)]),
)
def test_binary_h_bytes_match_per_vertex_loop(seed, n, kind, ab):
    rng = np.random.default_rng(seed)
    positive = (rng.uniform(size=n) < rng.uniform(0.05, 0.95)).astype(np.int64)
    positive[:2] = [0, 1]
    scores = {
        "random": rng.uniform(size=n) + 0.3 * positive,
        "ties": np.round(rng.uniform(size=n) + 0.5 * positive, 1),
        "equal": np.full(n, 0.25),
    }[kind]
    with mock.patch.multiple(metrics, BETA_A=float(ab[0]), BETA_B=float(ab[1])):  # the severity is a module constant
        got = binary_h_measure(scores, positive)
    assert np.float64(got).tobytes() == np.float64(_binary_h_per_vertex(scores, positive, *ab)).tobytes()


def _betainc_grid():
    """[0, 1] with both ends, subnormal and tiny x, x near 1 and a uniform
    sample."""
    tiny = np.finfo(np.float64).tiny
    return np.unique(np.concatenate([
        [0.0, 5e-324, 1e-310, tiny, 0.5, np.nextafter(1.0, 0.0), 1.0],
        np.logspace(-323, 0, 2000),
        1.0 - np.logspace(-17, 0, 2000),
        np.random.default_rng(0).uniform(size=20_000),
    ]))


@pytest.mark.parametrize("a, b", [(3, 2), (2, 3), (2, 2), (1, 3), (4, 2), (2, 4)])
def test_betainc_within_8_ulp_of_scipy(a, b):
    # ulps of max(|reference|, 2**-960): below that floor the error is
    # absolute, since betainc flushes results under the smallest normal
    # float to 0 where the binomial sum keeps a subnormal value
    x = _betainc_grid()
    want = betainc(float(a), float(b), x)
    ulps = np.abs(_betainc(a, b, x) - want) / np.spacing(np.maximum(np.abs(want), 2.0**-960))
    assert ulps.max() <= 8
    assert _betainc(a, b, np.array([0.0, 1.0])).tolist() == [0.0, 1.0]


def test_beta_integrals_within_2_ulp_of_one_of_scipy():
    # the H-measure sums these interval integrals, so the bound is absolute
    x = _betainc_grid()
    rng = np.random.default_rng(1)
    u, v = np.minimum(x, rng.permutation(x)), np.maximum(x, rng.permutation(x))
    a, b = metrics.BETA_A, metrics.BETA_B
    c_part, rest = metrics._beta_integrals(u, v)
    assert np.abs(c_part - a / (a + b) * (betainc(a + 1, b, v) - betainc(a + 1, b, u))).max() <= 2.0**-51
    assert np.abs(rest - b / (a + b) * (betainc(a, b + 1, v) - betainc(a, b + 1, u))).max() <= 2.0**-51


@pytest.mark.parametrize("ab", [(2.5, 2.0), (2.0, 0.0)], ids=["non_integer", "zero"])
def test_beta_severity_must_be_positive_integers(ab):
    positive = np.array([0, 1, 0, 1])
    with mock.patch.multiple(metrics, BETA_A=ab[0], BETA_B=ab[1]):
        with pytest.raises(ValueError, match="positive integers"):
            binary_h_measure(np.array([0.1, 0.8, 0.4, 0.6]), positive)


def test_constant_scores_h_zero():
    positive = np.array([0, 1, 0, 1, 1])
    s = np.full(5, 0.4)
    assert binary_h_measure(s, positive) == pytest.approx(0.0, abs=1e-12)


def test_degenerate_class_skipped():
    # class 2 is absent from the truth, so the macro averages classes 0 and 1 only
    y = np.array([0, 1, 0, 0, 1])
    scores = np.array([[0.5, 0.3, 0.2], [0.2, 0.7, 0.1], [0.6, 0.1, 0.3], [0.3, 0.4, 0.3], [0.1, 0.5, 0.4]])
    parts = [binary_h_measure(scores[:, c], (y == c).astype(np.int64)) for c in (0, 1)]
    assert h_measure(y, scores) == np.mean(parts)


def test_h_measure_errors():
    with pytest.raises(DataError, match="distinct"):
        h_measure([1, 1, 1], np.full((3, 2), 0.5))
    with pytest.raises(DataError, match="row-stochastic"):
        h_measure([0, 1], np.array([[0.9, 0.9], [0.1, 0.1]]))
    with pytest.raises(DataError, match="both classes"):
        binary_h_measure(np.array([0.5, 0.6]), np.array([1, 1]))
