from dataclasses import replace

import numpy as np
import pytest
from scipy.stats import multivariate_normal

from credo.errors import DataError, LdaClampWarning, NumericError
from credo.frame import numeric_frame
from credo.lda import LdaConfig, fit_lda, scatter_matrices, transform_lda


def _frame(X, y):
    return numeric_frame(np.asarray(X, dtype=float), labels=np.asarray(y))


SIX_POINTS = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [3.0, 3.0], [4.0, 3.0], [3.0, 4.0]])
SIX_LABELS = np.array([0, 0, 0, 1, 1, 1])


def _oracle_projection(X, y, n_classes, ridge):
    """Dense generalized-eigen solve of inv(S_w + r I) S_b, top direction."""
    S_w, S_b, _, _, _ = scatter_matrices(X, y, n_classes)
    A = S_w + ridge * np.eye(X.shape[1])
    evals, vecs = np.linalg.eig(np.linalg.solve(A, S_b))
    order = np.argsort(evals.real)[::-1]
    return evals.real[order], vecs.real[:, order]


def test_component_cap_with_clamp_warning():
    rng = np.random.default_rng(0)
    X = rng.normal(size=(400, 107))
    y = np.repeat(np.arange(10), 40)
    with pytest.warns(LdaClampWarning, match="capped at 9"):
        p = fit_lda(_frame(X, y), LdaConfig(n_components=21))
    assert p.components.shape == (107, 9)
    assert p.n_requested == 21 > p.n_components


def test_separation_along_one_axis():
    # coordinates 0 and 2 are constant for every row; only coordinate 1 moves
    rng = np.random.default_rng(1)
    n = 30
    X = np.column_stack([
        np.full(2 * n, 1.0),
        np.concatenate([rng.normal(0.0, 0.1, n), rng.normal(3.0, 0.1, n)]),
        np.full(2 * n, 2.0),
    ])
    y = np.repeat([0, 1], n)
    p = fit_lda(_frame(X, y), LdaConfig(n_components=1))
    v = p.components[:, 0]
    direction = np.abs(v) / np.linalg.norm(v)
    assert direction[1] == pytest.approx(1.0, abs=1e-6)
    assert v[1] > 0  # sign convention


def test_projection_matches_dense_oracle():
    ridge = 1e-8
    p = fit_lda(_frame(SIX_POINTS, SIX_LABELS), LdaConfig(n_components=1, ridge=ridge))
    evals, vecs = _oracle_projection(SIX_POINTS, SIX_LABELS, 2, ridge)
    v = vecs[:, 0]
    # match the fitted normalization (unit regularized-scatter norm) and sign
    S_w, _, _, _, _ = scatter_matrices(SIX_POINTS, SIX_LABELS, 2)
    A = S_w + ridge * np.eye(2)
    v = v / np.sqrt(v @ A @ v)
    if v[np.abs(v).argmax()] < 0:
        v = -v
    assert p.components[:, 0] == pytest.approx(v, abs=1e-8)
    assert p.eigenvalues[0] == pytest.approx(evals[0], rel=1e-8)


def test_eigenvalues_match_oracle_at_zero_ridge():
    p = fit_lda(_frame(SIX_POINTS, SIX_LABELS), LdaConfig(n_components=1, ridge=0.0))
    evals, _ = _oracle_projection(SIX_POINTS, SIX_LABELS, 2, 0.0)
    assert p.eigenvalues[0] == pytest.approx(evals[0], rel=1e-8)
    # S_w-normalization holds exactly at ridge 0
    v = p.components[:, 0]
    assert v @ p.within_scatter @ v == pytest.approx(1.0, abs=1e-10)


def test_singular_scatter_needs_ridge():
    X = np.array([[1.0, 2.0], [1.0, 2.0], [1.0, 2.0], [5.0, 6.0], [5.0, 6.0], [5.0, 6.0]])
    y = np.array([0, 0, 0, 1, 1, 1])
    with pytest.raises(NumericError, match="positive ridge"):
        fit_lda(_frame(X, y), LdaConfig(n_components=1, ridge=0.0))


def test_fit_validation():
    with pytest.raises(DataError, match="n_components"):
        fit_lda(_frame(SIX_POINTS, SIX_LABELS), LdaConfig(n_components=0))
    with pytest.raises(DataError, match="fewer than 2"):
        fit_lda(_frame(np.eye(3), [0, 0, 1]), LdaConfig(n_components=1))


# ------------------------------------------------------------- transform


def test_transform_centers_grand_mean():
    p = fit_lda(_frame(SIX_POINTS, SIX_LABELS), LdaConfig(n_components=1))
    f = numeric_frame(p.grand_mean[None, :], ["x0", "x1"])
    out = transform_lda(p, f).matrix
    assert out == pytest.approx(np.zeros((1, 1)), abs=1e-12)


def test_transform_shape_and_names():
    p = fit_lda(_frame(SIX_POINTS, SIX_LABELS), LdaConfig(n_components=1))
    out = transform_lda(p, _frame(SIX_POINTS, SIX_LABELS))
    assert out.column_names == ("LD1",)
    assert out.matrix.shape == (6, 1)
    assert np.array_equal(out.labels, SIX_LABELS)


def test_transform_is_affine():
    rng = np.random.default_rng(5)
    X = rng.normal(size=(40, 4))
    y = rng.integers(0, 3, 40)
    y[:6] = [0, 0, 1, 1, 2, 2]
    p = fit_lda(_frame(X, y), LdaConfig(n_components=2))
    a, b_row = X[0], X[1]
    alpha = 0.3
    names = ["x0", "x1", "x2", "x3"]
    za = transform_lda(p, numeric_frame(a[None], names)).matrix
    zb = transform_lda(p, numeric_frame(b_row[None], names)).matrix
    mix = transform_lda(p, numeric_frame((alpha * a + (1 - alpha) * b_row)[None], names)).matrix
    assert mix == pytest.approx(alpha * za + (1 - alpha) * zb, abs=1e-10)


def test_transform_dimension_mismatch():
    p = fit_lda(_frame(SIX_POINTS, SIX_LABELS), LdaConfig(n_components=1))
    with pytest.raises(DataError, match="do not match"):
        transform_lda(p, numeric_frame(np.zeros((2, 3))))


def test_projected_separation_matches_original():
    # nearest-centroid accuracy survives the 2-D -> 1-D projection
    f = _frame(SIX_POINTS, SIX_LABELS)
    p = fit_lda(f, LdaConfig(n_components=1))
    z = transform_lda(p, f).matrix

    def centroid_acc(M):
        c0, c1 = M[SIX_LABELS == 0].mean(0), M[SIX_LABELS == 1].mean(0)
        pred = (np.linalg.norm(M - c1, axis=1) < np.linalg.norm(M - c0, axis=1)).astype(int)
        return (pred == SIX_LABELS).mean()

    assert centroid_acc(z) == centroid_acc(SIX_POINTS) == 1.0


def test_between_class_ratio_nonincreasing():
    rng = np.random.default_rng(9)
    means = rng.normal(scale=4.0, size=(4, 5))
    X = np.vstack([rng.normal(means[c], 1.0, size=(25, 5)) for c in range(4)])
    y = np.repeat(np.arange(4), 25)
    p = fit_lda(_frame(X, y), LdaConfig(n_components=3))
    reg = p.within_scatter + p.ridge * np.eye(5)
    ratios = [
        (v @ p.between_scatter @ v) / (v @ reg @ v) for v in p.components.T
    ]
    assert all(ratios[i] >= ratios[i + 1] - 1e-10 for i in range(len(ratios) - 1))
    assert np.all(np.diff(p.eigenvalues) <= 1e-12)
    assert ratios == pytest.approx(p.eigenvalues.tolist(), rel=1e-8)


# --------------------------------------------------------------- predict


def _three_class_fixture(seed=11, n=60):
    rng = np.random.default_rng(seed)
    means = np.array([[0.0, 0.0], [5.0, 0.0], [0.0, 5.0]])
    X = np.vstack([rng.normal(means[c], 0.8, size=(n, 2)) for c in range(3)])
    y = np.repeat(np.arange(3), n)
    return _frame(X, y)


def test_predict_at_class_mean_is_that_class():
    f = _three_class_fixture()
    p = fit_lda(f, LdaConfig(n_components=2))
    proba = p.predict_proba(numeric_frame(p.class_means, ["x0", "x1"]))
    assert proba.argmax(axis=1).tolist() == [0, 1, 2]


def test_equal_class_means_yield_priors():
    # both classes centered exactly at the origin, 4 vs 8 rows
    X0 = np.array([[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0], [0.0, -1.0]])
    X1 = 2.0 * np.vstack([X0, 0.5 * X0])
    X = np.vstack([X0, X1])
    y = np.array([0] * 4 + [1] * 8)
    p = fit_lda(_frame(X, y), LdaConfig(n_components=1))
    queries = numeric_frame(np.array([[0.3, -2.0], [4.0, 4.0], [0.0, 0.0]]), ["x0", "x1"])
    proba = p.predict_proba(queries)
    assert proba == pytest.approx(np.tile([1 / 3, 2 / 3], (3, 1)), abs=1e-12)


def test_predict_matches_density_oracle():
    f = _three_class_fixture()
    p = fit_lda(f, LdaConfig(n_components=2))
    proba = p.predict_proba(f)
    acc = (proba.argmax(axis=1) == f.labels).mean()
    assert acc >= 0.9

    sigma = p.within_scatter / (p.n_train - 3) + p.ridge * np.eye(2)
    X = f.matrix
    dens = np.column_stack([
        p.class_priors[c] * multivariate_normal.pdf(X, p.class_means[c], sigma)
        for c in range(3)
    ])
    want = dens / dens.sum(axis=1, keepdims=True)
    assert proba == pytest.approx(want, abs=1e-8)


def test_predict_rows_sum_to_one():
    f = _three_class_fixture(seed=2)
    p = fit_lda(f, LdaConfig(n_components=2))
    proba = p.predict_proba(f)
    assert proba.sum(axis=1) == pytest.approx(np.ones(f.n_rows), abs=1e-12)
    assert proba.min() >= 0.0


def test_location_invariance_after_refit():
    f = _three_class_fixture(seed=4)
    X = f.matrix
    shift = np.array([100.0, -250.0])
    p1 = fit_lda(f, LdaConfig(n_components=2))
    p2 = fit_lda(_frame(X + shift, f.labels), LdaConfig(n_components=2))
    q = X[:10]
    pr1 = p1.predict_proba(numeric_frame(q, ["x0", "x1"]))
    pr2 = p2.predict_proba(numeric_frame(q + shift, ["x0", "x1"]))
    assert pr1 == pytest.approx(pr2, abs=1e-8)


def test_classifier_solves_discriminant_once(monkeypatch):
    f = _three_class_fixture(seed=5)
    p = fit_lda(f, LdaConfig(n_components=2))
    solve = np.linalg.solve
    calls = []
    monkeypatch.setattr(np.linalg, "solve", lambda *a: calls.append(1) or solve(*a))
    clf = p
    X = f.matrix
    first = clf.predict_proba(X)
    for _ in range(3):
        assert np.array_equal(clf.predict_proba(X[:7]), first[:7])
    assert np.array_equal(p.predict_proba(f), first)
    assert len(calls) == 1


def test_classifier_checks_feature_count():
    clf = fit_lda(_three_class_fixture(), LdaConfig(n_components=2))
    with pytest.raises(DataError, match="expects 2 features"):
        clf.predict_proba(np.zeros((4, 3)))
    with pytest.raises(DataError, match="expects 2 features"):
        clf.predict_proba(np.zeros(2))


def test_classifier_rejects_a_frame_with_reordered_columns():
    rng = np.random.default_rng(3)
    X = rng.normal(size=(60, 4)) + np.repeat(np.eye(3, 4) * 3.0, 20, axis=0)
    f = _frame(X, np.repeat(np.arange(3), 20))
    p = fit_lda(f)
    names = ["x2", "x0", "x3", "x1"]
    reordered = numeric_frame(X[:, [2, 0, 3, 1]], names)
    with pytest.raises(DataError, match="do not match"):
        p.predict_proba(reordered)
    with pytest.raises(DataError, match="do not match"):
        transform_lda(p, reordered)
    # a matrix carries no names, and a frame with the fitted columns passes
    assert np.array_equal(p.predict_proba(f), p.predict_proba(X))


def test_singular_shared_covariance_fails_at_every_prediction():
    p = fit_lda(_three_class_fixture(), LdaConfig(n_components=2))
    broken = replace(p, within_scatter=np.zeros((2, 2)), ridge=0.0)
    clf = broken
    for _ in range(2):  # a failed solve is not cached
        with pytest.raises(NumericError, match="singular"):
            clf.predict_proba(np.zeros((1, 2)))
