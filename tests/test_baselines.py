import numpy as np
import pytest
from scipy.optimize import minimize

import credo.baselines as baselines
from credo.baselines import (
    ForestConfig,
    GnbConfig,
    LogregConfig,
    TreeConfig,
    fit_forest,
    fit_gnb,
    fit_logreg,
    fit_tree,
    logreg_objective,
    softmax,
)
from credo.config import resolve_config
from credo.errors import DataError, NumericError
from credo.frame import numeric_frame
from credo.lda import LdaConfig, fit_lda, transform_lda
from credo.pipeline import prepare
from credo.synth import SynthSpec, write_synthetic


def _frame(X, y):
    return numeric_frame(np.asarray(X, dtype=float), labels=np.asarray(y))


# ---------------------------------------------------- logistic regression


def test_logreg_separable_perfect_accuracy():
    X = np.array([[-3.0], [-2.0], [-1.0], [1.0], [2.0], [3.0]])
    y = np.array([0, 0, 0, 1, 1, 1])
    m = fit_logreg(_frame(X, y), LogregConfig(l2=1e-4))
    assert (m.predict(X) == y).mean() == 1.0


def test_logreg_zero_iterations_is_uniform():
    X = np.random.default_rng(0).normal(size=(8, 3))
    y = np.array([0, 1, 2, 0, 1, 2, 0, 1])
    m = fit_logreg(_frame(X, y), LogregConfig(max_iter=0))
    assert m.predict_proba(X) == pytest.approx(np.full((8, 3), 1 / 3), abs=1e-12)


def test_logreg_gradient_matches_finite_differences():
    rng = np.random.default_rng(7)
    X = rng.normal(size=(5, 3))
    labels = rng.integers(0, 3, 5)
    W = rng.normal(scale=0.5, size=(3, 3))
    b = rng.normal(scale=0.5, size=3)
    l2 = 0.01
    _, gW, gb = logreg_objective(W, b, X, labels, l2)

    step = 1e-5
    numW = np.zeros_like(W)
    for i in range(3):
        for j in range(3):
            Wp, Wm = W.copy(), W.copy()
            Wp[i, j] += step
            Wm[i, j] -= step
            lp, _, _ = logreg_objective(Wp, b, X, labels, l2)
            lm, _, _ = logreg_objective(Wm, b, X, labels, l2)
            numW[i, j] = (lp - lm) / (2 * step)
    numb = np.zeros_like(b)
    for j in range(3):
        bp, bm = b.copy(), b.copy()
        bp[j] += step
        bm[j] -= step
        lp, _, _ = logreg_objective(W, bp, X, labels, l2)
        lm, _, _ = logreg_objective(W, bm, X, labels, l2)
        numb[j] = (lp - lm) / (2 * step)

    scale = max(np.abs(numW).max(), np.abs(numb).max())
    assert np.abs(gW - numW).max() / scale <= 1e-6
    assert np.abs(gb - numb).max() / scale <= 1e-6


def test_logreg_loss_nonincreasing():
    rng = np.random.default_rng(3)
    X = rng.normal(size=(60, 4))
    y = (X[:, 0] + 0.3 * rng.normal(size=60) > 0).astype(int)
    m = fit_logreg(_frame(X, y), LogregConfig(max_iter=80))
    assert np.all(np.diff(m.loss_history) <= 1e-15)
    assert m.n_iter >= 1


def test_logreg_convergence_reported():
    X = np.array([[-1.0], [1.0], [-2.0], [2.0]])
    y = np.array([0, 1, 0, 1])
    m = fit_logreg(_frame(X, y), LogregConfig(l2=1.0, max_iter=5000, tol=1e-8))
    assert m.converged
    m2 = fit_logreg(_frame(X, y), LogregConfig(l2=1.0, max_iter=1, tol=1e-12))
    assert not m2.converged


@pytest.mark.parametrize("max_iter, converges", [(2, False), (5000, True)])
def test_logreg_convergence_flag_matches_gradient(max_iter, converges):
    rng = np.random.default_rng(5)
    X = rng.normal(size=(40, 3))
    y = (X[:, 0] - X[:, 1] + rng.normal(size=40) > 0).astype(int)
    l2, tol = 0.5, 1e-6
    m = fit_logreg(_frame(X, y), LogregConfig(l2=l2, max_iter=max_iter, tol=tol))
    _, gW, gb = logreg_objective(m.weights, m.bias, X, y, l2)
    gnorm = max(np.abs(gW).max(), np.abs(gb).max())
    assert m.converged == converges
    if m.converged:
        assert gnorm < tol
    else:
        assert m.n_iter == max_iter and gnorm >= tol


def _flat_objective(X, y, n_classes, l2):
    """logreg_objective over the flattened (W, b), as (loss, gradient)."""
    shape = (X.shape[1], n_classes)

    def objective(theta):
        loss, gW, gb = logreg_objective(theta[:-n_classes].reshape(shape), theta[-n_classes:], X, y, l2)
        return loss, np.concatenate([gW.ravel(), gb])

    return objective, (X.shape[1] + 1) * n_classes


def _lbfgs_b_loss(X, y, n_classes, l2):
    """The optimum of logreg_objective found by scipy's L-BFGS-B."""
    objective, size = _flat_objective(X, y, n_classes, l2)
    result = minimize(
        objective, np.zeros(size), jac=True, method="L-BFGS-B",
        options={"gtol": 1e-12, "ftol": 1e-16, "maxiter": 10_000},
    )
    assert result.success, result.message
    return result.fun


def _gradient_descent(X, y, n_classes, l2, max_iter, tol=1e-6):
    """Reference fit: gradient steps with Armijo backtracking, each step
    starting at twice the last accepted one (at most 1e6), up to 60 halvings,
    until the gradient max-norm is below ``tol``."""
    objective, size = _flat_objective(X, y, n_classes, l2)
    theta = np.zeros(size)
    loss, g = objective(theta)
    history, step = [loss], 1.0
    for _ in range(max_iter):
        if np.abs(g).max() < tol:
            break
        step = min(step * 2.0, 1e6)
        for _ in range(60):
            trial = theta - step * g
            trial_loss, trial_g = objective(trial)
            if trial_loss <= loss - 1e-4 * step * float(g @ g):
                theta, loss, g = trial, trial_loss, trial_g
                history.append(loss)
                break
            step *= 0.5
        else:
            break
    return theta, np.array(history)


def _binary_fixture():
    rng = np.random.default_rng(11)
    X = rng.normal(size=(200, 5))
    y = (X @ [1.0, -0.5, 0.3, 0.0, 0.8] + rng.normal(size=200) > 0).astype(int)
    return X, y, 2


def _three_class_fixture():
    rng = np.random.default_rng(12)
    X = rng.normal(size=(300, 4))
    y = np.argmax(X[:, :3] + rng.normal(size=(300, 3)), axis=1)
    return X, y, 3


@pytest.mark.parametrize("fixture", [_binary_fixture, _three_class_fixture])
def test_logreg_reaches_the_lbfgs_b_optimum(fixture):
    X, y, n_classes = fixture()
    m = fit_logreg(_frame(X, y))
    assert m.converged
    optimum = _lbfgs_b_loss(X, y, n_classes, LogregConfig().l2)
    assert abs(m.loss_history[-1] - optimum) <= 1e-9 * optimum


def test_logreg_converges_at_defaults_on_the_compare_split(tmp_path, monkeypatch):
    # the comparison benchmark's shape: 1,000 rows, 10 classes, SMOTE after
    # the split, then LDA to 9 components
    path = str(tmp_path / "data.csv")
    write_synthetic(path, SynthSpec(rows=1000, separation=0.8, seed=3))
    cfg = resolve_config({"data": path, "target": "status", "model": {"name": "logreg"}})
    train, _, _ = prepare(cfg, [])
    train = transform_lda(fit_lda(train, LdaConfig()), train)
    assert train.matrix.shape == (2470, 9)
    calls = []

    def counted(*args):
        calls.append(1)
        return logreg_objective(*args)

    monkeypatch.setattr(baselines, "logreg_objective", counted)
    m = fit_logreg(train)
    assert m.converged and len(calls) <= 100
    # within the gap a 1e-6 gradient tolerance leaves; 500 gradient-descent
    # steps end about 2e-4 above the optimum here
    optimum = _lbfgs_b_loss(train.matrix, train.labels, 10, LogregConfig().l2)
    assert abs(m.loss_history[-1] - optimum) <= 1e-7 * optimum


def _assert_finite_descent(m):
    assert np.isfinite(m.weights).all() and np.isfinite(m.bias).all()
    assert np.all(np.diff(m.loss_history) <= 0)


def test_logreg_without_l2_on_separable_data():
    # the loss flattens toward 0, so the curvature s'y vanishes
    X = np.array([[-3.0, 1.0], [-2.0, 0.0], [-1.0, 2.0], [1.0, 0.0], [2.0, 1.0], [3.0, 2.0]])
    y = np.array([0, 0, 0, 1, 1, 1])
    for tol in (1e-6, 0.0):
        m = fit_logreg(_frame(X, y), LogregConfig(l2=0.0, tol=tol, max_iter=200))
        _assert_finite_descent(m)
        assert m.loss_history[-1] < 1e-6
        assert (m.predict(X) == y).all()


def test_logreg_rejects_and_halves_an_overflowing_trial(monkeypatch):
    # logreg_objective plus a wall whose exp overflows to inf past |W| = 1.001
    calls = []

    def walled(W, b, X, labels, l2):
        loss, gW, gb = logreg_objective(W, b, X, labels, l2)
        loss += np.exp(1e6 * (np.abs(W).max() - 1.0))
        calls.append(loss)
        return loss, gW, gb

    monkeypatch.setattr(baselines, "logreg_objective", walled)
    X = np.linspace(-2.0, 2.0, 40)[:, None]
    y = (X[:, 0] > 0).astype(int)
    m = fit_logreg(_frame(X, y), LogregConfig(max_iter=50))
    _assert_finite_descent(m)
    assert not np.isfinite(calls).all()
    assert len(m.loss_history) > 2
    assert np.abs(m.weights).max() < 1.001


@pytest.mark.parametrize(
    "direction",
    [lambda g, pairs: -1e250 * g, lambda g, pairs: g],
    ids=["line_search_fails", "ascent"],
)
def test_logreg_falls_back_to_the_gradient_step(direction, monkeypatch):
    # every L-BFGS direction either overflows at each of its 60 trial steps
    # or points uphill, so each step is the gradient step: the fit is
    # gradient descent exactly
    monkeypatch.setattr(baselines, "_lbfgs_direction", direction)
    X, y, n_classes = _three_class_fixture()
    m = fit_logreg(_frame(X, y), LogregConfig(max_iter=30))
    theta, history = _gradient_descent(X, y, n_classes, 1e-4, 30)
    _assert_finite_descent(m)
    assert np.array_equal(m.loss_history, history)
    assert np.array_equal(np.concatenate([m.weights.ravel(), m.bias]), theta)


def test_logreg_gradient_overflow_raises_numeric_error():
    # features near 1e156 make the gradient step's slope -g'g overflow
    X = np.array([[1e156, 0.0], [-1e156, 0.25], [-1e156, 0.5], [1e156, 0.75], [-1e156, 1.0], [-1e156, 1.25]])
    y = np.array([1, 0, 0, 1, 0, 0])
    with pytest.raises(NumericError, match="1e\\+156.*scaler"):
        fit_logreg(_frame(X, y))


# ---------------------------------------------------- Gaussian naive Bayes


def test_gnb_class_independent_feature_gives_priors():
    # both classes see values {0,1}: identical means and variances
    X = np.array([[0.0], [1.0], [0.0], [1.0], [0.0], [1.0]])
    y = np.array([0, 0, 1, 1, 1, 1])
    m = fit_gnb(_frame(X, y))
    proba = m.predict_proba(np.array([[0.3], [7.0]]))
    assert proba == pytest.approx(np.tile([1 / 3, 2 / 3], (2, 1)), abs=1e-12)


def test_gnb_matches_hand_computation():
    X = np.array([[0.0], [2.0], [4.0], [6.0]])
    y = np.array([0, 0, 1, 1])
    m = fit_gnb(_frame(X, y), GnbConfig(var_smoothing=0.0))
    x = 2.5
    # class 0: mean 1, population var 1; class 1: mean 5, var 1; priors 1/2
    d0 = np.exp(-((x - 1.0) ** 2) / 2.0) / np.sqrt(2 * np.pi)
    d1 = np.exp(-((x - 5.0) ** 2) / 2.0) / np.sqrt(2 * np.pi)
    want = np.array([d0, d1]) / (d0 + d1)
    got = m.predict_proba(np.array([[x]]))[0]
    assert got == pytest.approx(want, abs=1e-12)


def test_gnb_duplication_invariant():
    rng = np.random.default_rng(5)
    X = rng.normal(size=(20, 3))
    y = rng.integers(0, 2, 20)
    y[:2] = [0, 1]
    m1 = fit_gnb(_frame(X, y))
    m2 = fit_gnb(_frame(np.vstack([X, X]), np.concatenate([y, y])))
    # sufficient statistics are duplication-invariant up to summation rounding
    assert m1.means == pytest.approx(m2.means, abs=1e-15)
    assert m1.variances == pytest.approx(m2.variances, abs=1e-15)
    assert np.array_equal(m1.priors, m2.priors)


def test_gnb_row_order_invariant():
    rng = np.random.default_rng(6)
    X = rng.normal(size=(30, 2))
    y = rng.integers(0, 3, 30)
    y[:3] = [0, 1, 2]
    perm = rng.permutation(30)
    m1 = fit_gnb(_frame(X, y))
    m2 = fit_gnb(_frame(X[perm], y[perm]))
    assert m1.means == pytest.approx(m2.means, abs=1e-14)
    assert m1.variances == pytest.approx(m2.variances, abs=1e-14)
    assert np.array_equal(m1.priors, m2.priors)


def test_gnb_empty_class_errors():
    X = np.zeros((4, 1))
    f = numeric_frame(X, labels=np.array([0, 0, 1, 1]), class_names=("a", "b", "c"))
    with pytest.raises(DataError, match="no training rows"):
        fit_gnb(f)


# -------------------------------------------------------------- CART tree


def test_tree_pure_input_single_leaf():
    X = np.array([[0.0], [1.0], [2.0]])
    f = numeric_frame(X, labels=np.array([0, 0, 0]), class_names=("a", "b"))
    m = fit_tree(f)
    assert m.feature[0] < 0
    assert m.predict(X).tolist() == [0, 0, 0]


def test_tree_oracle_split_point():
    X = np.array([[0.0], [1.0], [2.0], [3.0]])
    y = np.array([0, 0, 1, 1])
    m = fit_tree(_frame(X, y))
    assert m.feature[0] == 0
    assert m.threshold[0] == 1.5
    assert (m.predict(X) == y).all()

    # exhaustive oracle: gini decrease over every midpoint
    def gini(labels):
        if len(labels) == 0:
            return 0.0
        p = np.bincount(labels, minlength=2) / len(labels)
        return 1.0 - (p**2).sum()

    best = max(
        ((0.5 * (a + b)) for a, b in zip(X[:-1, 0], X[1:, 0]) if a != b),
        key=lambda t: gini(y) - (X[:, 0] <= t).mean() * gini(y[X[:, 0] <= t])
        - (X[:, 0] > t).mean() * gini(y[X[:, 0] > t]),
    )
    assert m.threshold[0] == best


def test_tree_xor_depth_two():
    # XOR layout as four point-mass clusters. Sizes are unequal so the x0
    # boundary carries strictly positive gain (symmetric XOR has none and a
    # greedy tree would refuse the root split).
    centers = np.array([[0.0, 0.0], [0.0, 1.0], [1.0, 0.0], [1.0, 1.0]])
    labels = np.array([0, 1, 1, 0])
    sizes = [40, 10, 40, 10]
    X = np.repeat(centers, sizes, axis=0)
    y = np.repeat(labels, sizes)
    m = fit_tree(_frame(X, y), TreeConfig(max_depth=2))
    assert m.feature[0] == 0 and m.threshold[0] == 0.5
    assert (m.predict(X) == y).mean() == 1.0


def test_tree_monotone_transform_invariance():
    rng = np.random.default_rng(13)
    X = rng.integers(0, 8, size=(50, 3)).astype(float)
    y = rng.integers(0, 3, 50)
    y[:3] = [0, 1, 2]
    # test rows reuse training values so routing is threshold-exact
    Xt = X[rng.integers(0, 50, 30)]

    def transform(M):
        M = M.copy()
        M[:, 1] = np.exp(M[:, 1])  # strictly increasing
        return M

    m1 = fit_tree(_frame(X, y), TreeConfig(max_depth=4))
    m2 = fit_tree(_frame(transform(X), y), TreeConfig(max_depth=4))
    assert np.array_equal(m1.predict(Xt), m2.predict(transform(Xt)))


def test_tree_min_leaf_blocks_splits():
    X = np.arange(6, dtype=float)[:, None]
    y = np.array([0, 0, 0, 1, 1, 1])
    m = fit_tree(_frame(X, y), TreeConfig(min_leaf=4))
    assert m.feature[0] < 0


def test_tree_laplace_smoothing_and_tie_break():
    X = np.array([[0.0], [0.0]])
    f = numeric_frame(X, labels=np.array([0, 1]))
    m = fit_tree(f)
    proba = m.predict_proba(X)
    assert proba[0].tolist() == [0.5, 0.5]
    assert m.predict(X).tolist() == [0, 0]  # tie goes to the smaller index


# ---------------------------------------------------------- random forest


def test_forest_degenerates_to_tree():
    rng = np.random.default_rng(17)
    X = rng.normal(size=(40, 4))
    y = rng.integers(0, 2, 40)
    y[:2] = [0, 1]
    f = _frame(X, y)
    tree = fit_tree(f)
    forest = fit_forest(f, ForestConfig(n_trees=1, mtry=4, bootstrap=False))
    assert np.array_equal(forest.predict_proba(X), tree.predict_proba(X))


def test_forest_deterministic_per_seed():
    rng = np.random.default_rng(19)
    X = rng.normal(size=(60, 5))
    y = rng.integers(0, 3, 60)
    y[:3] = [0, 1, 2]
    f = _frame(X, y)
    a = fit_forest(f, ForestConfig(n_trees=8, seed=4))
    b = fit_forest(f, ForestConfig(n_trees=8, seed=4))
    assert np.array_equal(a.predict_proba(X), b.predict_proba(X))
    c = fit_forest(f, ForestConfig(n_trees=8, seed=5))
    assert not np.array_equal(a.predict_proba(X), c.predict_proba(X))


def test_forest_beats_single_tree_on_blobs():
    rng = np.random.default_rng(100)
    means = rng.normal(scale=3.0, size=(10, 6))

    def blobs(n_per):
        X = np.vstack([rng.normal(means[c], 1.5, size=(n_per, 6)) for c in range(10)])
        return _frame(X, np.repeat(np.arange(10), n_per))

    train, test = blobs(30), blobs(30)
    tree_acc = (fit_tree(train).predict(test.matrix) == test.labels).mean()
    forest_accs = [
        (fit_forest(train, ForestConfig(n_trees=25, seed=s)).predict(test.matrix) == test.labels).mean()
        for s in range(5)
    ]
    assert np.mean(forest_accs) > tree_acc


# --------------------------------------------------------- model contract


@pytest.mark.parametrize("fitter", [
    lambda f: fit_logreg(f, LogregConfig(max_iter=50)),
    fit_gnb,
    fit_tree,
    lambda f: fit_forest(f, ForestConfig(n_trees=5, seed=0)),
])
def test_row_stochastic_contract(fitter):
    rng = np.random.default_rng(23)
    X = rng.normal(size=(50, 4))
    y = rng.integers(0, 3, 50)
    y[:3] = [0, 1, 2]
    m = fitter(_frame(X, y))
    proba = m.predict_proba(rng.normal(size=(20, 4)))
    assert proba.shape == (20, 3)
    assert proba.sum(axis=1) == pytest.approx(np.ones(20), abs=1e-9)
    assert proba.min() >= 0.0 and proba.max() <= 1.0
    assert np.array_equal(m.predict(X), m.predict_proba(X).argmax(axis=1))


def test_feature_count_checked():
    X = np.zeros((4, 2))
    m = fit_gnb(_frame(X, np.array([0, 0, 1, 1])))
    with pytest.raises(DataError, match="expects 2 features"):
        m.predict(np.zeros((3, 5)))


def test_softmax_stability():
    big = softmax(np.array([[1000.0, 0.0, -1000.0]]))
    assert np.isfinite(big).all()
    assert big.sum() == pytest.approx(1.0)
