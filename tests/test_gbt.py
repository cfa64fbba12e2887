import re
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from credo.baselines import softmax
from credo.errors import DataError
from credo.frame import numeric_frame
from credo.gbt import (
    BoostedEnsemble,
    GbtConfig,
    RegressionTree,
    extract_leaf_indices,
    extract_margins,
    fit_gbt,
)
from credo.neural import derive_features
from credo.trees import GradientStat


def _frame(X, y, class_names=None):
    return numeric_frame(np.asarray(X, dtype=float), labels=np.asarray(y), class_names=class_names)


FIX_X = np.array([[0.0], [1.0], [2.0], [3.0]])
FIX_Y = np.array([0, 0, 1, 1])
FIX_CFG = GbtConfig(rounds=1, learning_rate=0.5, max_depth=1, lam=1.0, gamma=0.0, min_child_weight=0.0)


def _oracle_depth1(x, g, h, lam):
    """Enumerate every midpoint threshold and apply the gain and leaf-weight
    formulas directly; returns (threshold, left weight, right weight)."""
    order = np.argsort(x)
    xs, gs, hs = x[order], g[order], h[order]
    G, H = gs.sum(), hs.sum()
    best = None
    for k in range(len(xs) - 1):
        if xs[k] == xs[k + 1]:
            continue
        GL, HL = gs[: k + 1].sum(), hs[: k + 1].sum()
        GR, HR = G - GL, H - HL
        gain = 0.5 * (GL**2 / (HL + lam) + GR**2 / (HR + lam) - G**2 / (H + lam))
        if best is None or gain > best[0]:
            best = (gain, 0.5 * (xs[k] + xs[k + 1]), -GL / (HL + lam), -GR / (HR + lam))
    return best


def test_depth1_fixture_matches_closed_form_oracle():
    m = fit_gbt(_frame(FIX_X, FIX_Y), FIX_CFG)
    # round 0 gradients: uniform softmax of equal log priors
    p = 0.5
    for c in range(2):
        y_ind = (FIX_Y == c).astype(float)
        g = p - y_ind
        h = np.full(4, p * (1 - p))
        gain, thr, wl, wr = _oracle_depth1(FIX_X[:, 0], g, h, lam=1.0)
        tree = m.trees[c]
        assert tree.feature[0] == 0
        assert tree.threshold[0] == pytest.approx(thr, abs=1e-12)
        assert tree.weight[tree.left[0]] == pytest.approx(wl, abs=1e-12)
        assert tree.weight[tree.right[0]] == pytest.approx(wr, abs=1e-12)
        assert tree.gain[0] == pytest.approx(gain, abs=1e-12)
    # hand values: split at 1.5, class-0 leaf weights +-2/3
    assert m.trees[0].threshold[0] == 1.5
    assert m.trees[0].weight[m.trees[0].left[0]] == pytest.approx(2 / 3, abs=1e-12)
    assert m.trees[0].weight[m.trees[0].right[0]] == pytest.approx(-2 / 3, abs=1e-12)


def test_single_class_training_collapses():
    f = _frame(np.arange(8, dtype=float)[:, None], np.zeros(8, dtype=int), class_names=("a", "b"))
    m = fit_gbt(f, GbtConfig(rounds=3, max_depth=3))
    for tree in m.trees:
        assert tree.feature.tolist() == [-1]  # bare root
    proba = m.predict_proba(f)
    assert (proba.argmax(axis=1) == 0).all()
    assert proba[:, 0] == pytest.approx(np.ones(8), abs=1e-9)


def test_xor_clusters_perfect_training_accuracy():
    rng = np.random.default_rng(5)
    centers = np.array([[0.0, 0.0], [0.0, 1.0], [1.0, 0.0], [1.0, 1.0]])
    labels = np.array([0, 1, 1, 0])
    sizes = [30, 20, 30, 20]
    X = np.vstack([rng.normal(c, 0.08, size=(s, 2)) for c, s in zip(centers, sizes)])
    y = np.repeat(labels, sizes)
    f = _frame(X, y)
    m = fit_gbt(f, GbtConfig(rounds=50, learning_rate=0.3, max_depth=2))
    assert (m.predict_proba(f).argmax(axis=1) == y).mean() == 1.0


def test_training_loss_nonincreasing_without_split_penalty():
    rng = np.random.default_rng(7)
    means = rng.normal(scale=2.0, size=(3, 4))
    X = np.vstack([rng.normal(means[c], 1.0, size=(40, 4)) for c in range(3)])
    y = np.repeat(np.arange(3), 40)
    f = _frame(X, y)
    m = fit_gbt(f, GbtConfig(rounds=25, learning_rate=0.3, max_depth=3, gamma=0.0))
    losses = []
    for r in range(m.rounds + 1):
        proba = softmax(extract_margins(m, f, n_rounds=r))
        losses.append(-np.mean(np.log(proba[np.arange(len(y)), y])))
    assert np.all(np.diff(losses) <= 1e-12)


def test_gain_recomputed_from_replayed_gradients():
    rng = np.random.default_rng(9)
    X = rng.normal(size=(60, 3))
    y = (X[:, 0] + 0.5 * X[:, 1] > 0).astype(int)
    y[:2] = [0, 1]
    f = _frame(X, y)
    cfg = GbtConfig(rounds=3, learning_rate=0.4, max_depth=3, lam=1.5, gamma=0.0, min_child_weight=0.5)
    m = fit_gbt(f, cfg)
    for r in range(m.rounds):
        P = softmax(extract_margins(m, f, n_rounds=r))
        for c in range(m.n_classes):
            tree = m.trees[r * m.n_classes + c]
            g = P[:, c] - (y == c)
            h = P[:, c] * (1 - P[:, c])
            # walk every split node with its row set and redo the arithmetic
            stack = [(0, np.arange(len(X)))]
            while stack:
                i, rows = stack.pop()
                if tree.feature[i] < 0:
                    continue
                mask = X[rows, tree.feature[i]] <= tree.threshold[i]
                L, R = rows[mask], rows[~mask]
                GL, HL = g[L].sum(), h[L].sum()
                GR, HR = g[R].sum(), h[R].sum()
                want = 0.5 * (
                    GL**2 / (HL + cfg.lam)
                    + GR**2 / (HR + cfg.lam)
                    - (GL + GR) ** 2 / (HL + HR + cfg.lam)
                ) - cfg.gamma
                assert tree.gain[i] == pytest.approx(want, abs=1e-10)
                assert want > 0
                stack.append((tree.left[i], L))
                stack.append((tree.right[i], R))


def test_large_lambda_shrinks_leaf_weights():
    maxima = []
    for lam in (1.0, 10.0, 100.0, 1e6):
        cfg = GbtConfig(rounds=1, max_depth=1, lam=lam, min_child_weight=0.0)
        m = fit_gbt(_frame(FIX_X, FIX_Y), cfg)
        maxima.append(max(np.abs(t.weight[t.feature < 0]).max() for t in m.trees))
    assert all(a > b for a, b in zip(maxima, maxima[1:]))
    assert maxima[-1] < 1e-3


def test_determinism():
    rng = np.random.default_rng(11)
    X = rng.normal(size=(50, 4))
    y = rng.integers(0, 3, 50)
    y[:3] = [0, 1, 2]
    f = _frame(X, y)
    cfg = GbtConfig(rounds=5, max_depth=3)
    a = fit_gbt(f, cfg)
    b = fit_gbt(f, cfg)
    assert np.array_equal(a.predict_proba(X), b.predict_proba(X))


# ----------------------------------------------------------- predictions


def _zero_round_ensemble(base):
    return BoostedEnsemble(
        n_classes=len(base), feature_names=("x0", "x1"), rounds=0, learning_rate=0.3,
        lam=1.0, gamma=0.0, min_child_weight=1.0,
        base_score=np.asarray(base, dtype=float), trees=(),
    )


def test_zero_rounds_predicts_base_softmax():
    m = _zero_round_ensemble([0.2, -0.1, 0.5])
    X = np.random.default_rng(0).normal(size=(6, 2))
    want = softmax(np.tile(m.base_score, (6, 1)))
    assert m.predict_proba(X) == pytest.approx(want, abs=1e-15)
    assert extract_margins(m, X) == pytest.approx(np.tile(m.base_score, (6, 1)))


@pytest.mark.parametrize("rate", [0.0, -0.3, 1.5, 1e308, float("nan")])
def test_an_ensemble_learning_rate_outside_the_config_bound_is_a_data_error(rate):
    message = "expected a finite number" if np.isnan(rate) else f"must be in (0, 1], got {rate}"
    with pytest.raises(DataError, match=re.escape(f"learning_rate: {message}")):
        replace(_zero_round_ensemble([0.2, -0.1]), learning_rate=rate)


def test_probabilities_row_stochastic():
    rng = np.random.default_rng(13)
    X = rng.normal(size=(40, 3))
    y = rng.integers(0, 4, 40)
    y[:4] = [0, 1, 2, 3]
    m = fit_gbt(_frame(X, y), GbtConfig(rounds=4, max_depth=2))
    proba = m.predict_proba(rng.normal(size=(25, 3)))
    assert proba.shape == (25, 4)
    assert proba.sum(axis=1) == pytest.approx(np.ones(25), abs=1e-9)
    assert proba.min() >= 0.0


def test_softmax_of_margins_is_predict():
    rng = np.random.default_rng(15)
    X = rng.normal(size=(30, 2))
    y = (X[:, 0] > 0).astype(int)
    y[:2] = [0, 1]
    m = fit_gbt(_frame(X, y), GbtConfig(rounds=3, max_depth=2))
    Q = rng.normal(size=(10, 2))
    assert softmax(extract_margins(m, Q)) == pytest.approx(m.predict_proba(Q), abs=1e-12)


def test_margins_monotone_on_fitted_class():
    f = _frame(FIX_X, FIX_Y)
    cfg = GbtConfig(rounds=20, learning_rate=0.3, max_depth=1, min_child_weight=0.0)
    m = fit_gbt(f, cfg)
    point = FIX_X[:1]  # class 0, always correctly classified
    trace = [extract_margins(m, point, n_rounds=r)[0, 0] for r in range(m.rounds + 1)]
    assert np.all(np.diff(trace) > 0)


def test_dimension_mismatch():
    m = fit_gbt(_frame(FIX_X, FIX_Y), FIX_CFG)
    with pytest.raises(DataError, match="expects 1 features"):
        m.predict_proba(np.zeros((3, 2)))


# ---------------------------------------------------------- leaf indices


def test_leaf_indices_depth1_and_identical_rows():
    m = fit_gbt(_frame(FIX_X, FIX_Y), FIX_CFG)
    idx = extract_leaf_indices(m, FIX_X)
    assert idx.shape == (4, 2)
    assert set(np.unique(idx)) <= {0, 1}
    # split at 1.5: rows 0,1 land in the left leaf of every tree
    assert idx[0].tolist() == [0, 0]
    assert idx[1].tolist() == [0, 0]
    assert idx[2].tolist() == [1, 1]
    # identical input rows map to identical index rows
    dup = extract_leaf_indices(m, np.array([[2.5], [2.5]]))
    assert np.array_equal(dup[0], dup[1])


def _random_tree(rng, d, max_depth):
    """A random preorder boosting tree; a root drawn as a leaf makes a
    one-leaf tree."""
    feature, threshold, left, right = [], [], [], []

    def node(depth):
        i = len(feature)
        feature.append(-1), threshold.append(np.nan), left.append(-1), right.append(-1)
        if depth < max_depth and rng.uniform() < 0.6:
            feature[i], threshold[i] = int(rng.integers(d)), float(rng.normal())
            left[i] = node(depth + 1)
            right[i] = node(depth + 1)
        return i

    node(0)
    n = len(feature)
    return RegressionTree(
        np.array(feature), np.array(threshold), np.array(left), np.array(right), rng.normal(size=n), np.zeros(n)
    )


def _random_booster(rng, rounds, n_classes=2, d=3):
    trees = tuple(_random_tree(rng, d, int(rng.integers(0, 4))) for _ in range(rounds * n_classes))
    return BoostedEnsemble(
        n_classes, tuple(f"f{j}" for j in range(d)), rounds, 0.3, 1.0, 0.0, 1.0, np.zeros(n_classes), trees
    )


def _dfs_leaves(tree, i=0) -> list:
    """Oracle: the tree's leaf node ids in depth-first order, left first."""
    if tree.feature[i] < 0:
        return [i]
    return _dfs_leaves(tree, tree.left[i]) + _dfs_leaves(tree, tree.right[i])


def _walk(tree, x) -> int:
    """Oracle: the leaf a row reaches; NaN goes right."""
    i = 0
    while tree.feature[i] >= 0:
        i = tree.left[i] if x[tree.feature[i]] <= tree.threshold[i] else tree.right[i]
    return i


def _drawn(seed):
    """A random booster of seed % 4 rounds and 50 rows to route, a tenth of
    their cells NaN."""
    rng = np.random.default_rng(seed)
    m = _random_booster(rng, seed % 4)
    X = rng.normal(size=(50, 3))
    X[rng.uniform(size=X.shape) < 0.1] = np.nan
    return m, X


@pytest.mark.parametrize("seed", range(12))
def test_leaf_ranks_and_leaf_onehot_match_a_depth_first_walk(seed):
    m, X = _drawn(seed)
    leaves = [_dfs_leaves(t) for t in m.trees]
    ranks = np.array([[leaves[t].index(_walk(tree, x)) for t, tree in enumerate(m.trees)] for x in X])
    want = np.zeros((len(X), sum(map(len, leaves))))
    offsets = np.cumsum([0, *map(len, leaves)])[:-1]
    if m.trees:
        want[np.arange(len(X))[:, None], ranks + offsets] = 1.0
    got = extract_leaf_indices(m, X)
    assert got.dtype == np.int64 and np.array_equal(got, ranks.reshape(len(X), len(m.trees)))
    assert np.array_equal(derive_features(m, X, "leaf_onehot"), want)


def test_the_drawn_boosters_hold_one_leaf_trees():
    assert any(len(t.feature) == 1 for seed in range(12) for t in _drawn(seed)[0].trees)


def test_a_booster_of_no_rounds_has_no_leaf_columns():
    m = _random_booster(np.random.default_rng(0), 0)
    X = np.zeros((4, 3))
    assert extract_leaf_indices(m, X).shape == (4, 0)
    assert derive_features(m, X, "leaf_onehot").shape == (4, 0)


def test_config_validation():
    with pytest.raises(DataError):
        GbtConfig(rounds=0)
    with pytest.raises(DataError):
        GbtConfig(learning_rate=0.0)
    with pytest.raises(DataError):
        GbtConfig(learning_rate=1.5)
    with pytest.raises(DataError):
        GbtConfig(lam=-1.0)


def _gains_as_written(g, h, orders, cut, total, lam, gamma, mcw):
    """GradientStat.gains as one expression, the form it replaced."""
    G, H = total
    GL = np.cumsum(g.take(orders), axis=1)[:, :-1]
    HL = np.cumsum(h.take(orders), axis=1)[:, :-1]
    GR, HR = G - GL, H - HL
    gain = 0.5 * (GL * GL / (HL + lam) + GR * GR / (HR + lam) - G * G / (H + lam)) - gamma
    return np.where(cut & (HL >= mcw) & (HR >= mcw), gain, -np.inf)


def _with_warnings(fn, *args):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        out = fn(*args)
    return out.tobytes(), [str(w.message) for w in caught]


@settings(max_examples=80, deadline=None)
@given(
    st.integers(0, 2**32 - 1),
    st.sampled_from([0.0, 0.5, 1.0]),
    st.sampled_from([0.0, 0.1]),
    st.sampled_from([0.0, 0.3, 1.0]),
    st.sampled_from([1.0, 0.3, 0.05]),
)
def test_gains_bytes_and_warnings_match_the_formula(seed, lam, gamma, mcw, hessian_share):
    # a zero hessian prefix with lam 0 gives 0/0 cells: NaN and numpy's
    # divide warnings must come out as the formula gives them
    rng = np.random.default_rng(seed)
    n, k = int(rng.integers(3, 40)), int(rng.integers(1, 5))
    g = rng.normal(size=n)
    h = rng.uniform(size=n) * (rng.uniform(size=n) < hessian_share)
    m = int(rng.integers(2, n + 1))
    orders = np.stack([rng.permutation(n)[:m] for _ in range(k)])
    cut = rng.uniform(size=(k, m - 1)) < 0.8
    total = (float(g[orders[0]].sum()), float(h[orders[0]].sum()))
    if total[1] + lam == 0:
        return
    stat = GradientStat(g, h, lam, gamma, mcw)
    assert _with_warnings(stat.gains, orders, cut, total) == _with_warnings(
        _gains_as_written, g, h, orders, cut, total, lam, gamma, mcw
    )
