"""The presorted split engine against a brute-force per-node search.

The oracle is the scan the engine replaced: at every node, sort each feature
of the node's rows afresh (stable argsort), take prefix sums of the node
statistic, and keep the first maximal gain. Whole trees grown both ways must
be exactly equal, array for array, whatever number of features the engine
scores per numpy call (``trees.SEARCH_CELLS``).
"""

from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import given, reject, settings
from hypothesis import strategies as st

from credo import trees
from credo.baselines import ForestConfig, TreeConfig, fit_forest, fit_tree
from credo.errors import NumericError
from credo.frame import numeric_frame
from credo.gbt import GbtConfig, fit_gbt
from credo.trees import CountStat, GradientStat, grow, presort

# ----------------------------------------------------------------- oracle


def _gradient_scan(X, rows, features, g, h, lam, gamma, mcw):
    G_sum, H_sum = float(g[rows].sum()), float(h[rows].sum())
    parent = G_sum * G_sum / (H_sum + lam)
    best = (0.0, -1, 0.0)
    for j in features:
        xs = X[rows, j]
        order = np.argsort(xs, kind="stable")
        xs = xs[order]
        if xs[0] == xs[-1]:
            continue
        gs = np.cumsum(g[rows][order])
        hs = np.cumsum(h[rows][order])
        cut = np.nonzero(xs[:-1] != xs[1:])[0]
        GL, HL = gs[cut], hs[cut]
        GR, HR = G_sum - GL, H_sum - HL
        ok = (HL >= mcw) & (HR >= mcw)
        if not ok.any():
            continue
        gain = 0.5 * (GL * GL / (HL + lam) + GR * GR / (HR + lam) - parent) - gamma
        gain[~ok] = -np.inf
        k = int(np.argmax(gain))
        if gain[k] > best[0]:
            best = (float(gain[k]), int(j), float(0.5 * (xs[cut[k]] + xs[cut[k] + 1])))
    return best


def _impurity(counts, criterion):
    p = counts / counts.sum(axis=1, keepdims=True)
    if criterion == "gini":
        return 1.0 - (p * p).sum(axis=1)
    logp = np.where(p > 0, np.log(np.where(p > 0, p, 1.0)), 0.0)
    return -(p * logp).sum(axis=1)


def _count_scan(X, rows, features, y, n_classes, criterion, min_leaf):
    ysub = y[rows]
    n = len(rows)
    parent_counts = np.bincount(ysub, minlength=n_classes).astype(np.float64)
    parent_imp = _impurity(parent_counts[None, :], criterion)[0]
    best = (0.0, -1, 0.0)
    for j in features:
        xs = X[rows, j]
        order = np.argsort(xs, kind="stable")
        xs = xs[order]
        if xs[0] == xs[-1]:
            continue
        onehot = np.zeros((n, n_classes))
        onehot[np.arange(n), ysub[order]] = 1.0
        cum = np.cumsum(onehot, axis=0)
        cut = np.nonzero(xs[:-1] != xs[1:])[0]
        left_n = cut + 1
        ok = (left_n >= min_leaf) & (n - left_n >= min_leaf)
        if not ok.any():
            continue
        cut, left_n = cut[ok], left_n[ok]
        left_counts = cum[cut]
        gain = (
            parent_imp
            - (left_n / n) * _impurity(left_counts, criterion)
            - ((n - left_n) / n) * _impurity(parent_counts - left_counts, criterion)
        )
        k = int(np.argmax(gain))
        if gain[k] > best[0]:
            best = (float(gain[k]), int(j), float(0.5 * (xs[cut[k]] + xs[cut[k] + 1])))
    return best


def _oracle_grow(X, rows, total, splittable, scan, max_depth, pick=None):
    """Preorder (feature, threshold, left, right, gain) arrays and totals.

    ``rows`` index X and may repeat (a bootstrap sample); a node keeps them
    in sample order, so equal values sort by sample position.
    """
    out = {k: [] for k in ("feature", "threshold", "left", "right", "gain", "total")}

    def build(rows, depth):
        i = len(out["feature"])
        t = total(rows)
        for key, v in zip(out, (-1, np.nan, -1, -1, 0.0, t)):
            out[key].append(v)
        if (max_depth is not None and depth >= max_depth) or not splittable(t):
            return i
        features = range(X.shape[1]) if pick is None else pick()
        gain, f, thr = scan(rows, features, t)
        if f < 0:
            return i
        out["feature"][i], out["threshold"][i], out["gain"][i] = f, thr, gain
        go_left = X[rows, f] <= thr
        out["left"][i] = build(rows[go_left], depth + 1)
        out["right"][i] = build(rows[~go_left], depth + 1)
        return i

    build(rows, 0)
    return out


def _assert_same_tree(flat, gain, totals, oracle):
    assert np.array_equal(flat.feature, oracle["feature"])
    assert np.array_equal(flat.threshold, oracle["threshold"], equal_nan=True)
    assert np.array_equal(flat.left, oracle["left"])
    assert np.array_equal(flat.right, oracle["right"])
    assert np.array_equal(gain, oracle["gain"])
    assert np.array_equal(np.asarray(totals), np.asarray(oracle["total"]))


# ------------------------------------------------------------------- data


@st.composite
def tie_heavy_tables(draw, max_rows=30):
    """Columns that are constant, binary, one-hot groups, small integers and
    continuous, with some rows duplicated."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n = draw(st.integers(2, max_rows))
    kinds = draw(st.lists(st.sampled_from(["const", "binary", "onehot", "ints", "float"]), min_size=1, max_size=4))
    cols = []
    for kind in kinds:
        if kind == "const":
            cols.append(np.full((n, 1), 1.5))
        elif kind == "binary":
            cols.append(rng.integers(0, 2, (n, 1)).astype(float))
        elif kind == "onehot":
            cols.append(np.eye(3)[rng.integers(0, 3, n)])
        elif kind == "ints":
            cols.append(rng.integers(-2, 3, (n, 1)).astype(float))
        else:
            cols.append(rng.normal(size=(n, 1)).round(draw(st.integers(1, 6))))
    X = np.hstack(cols)
    dup = rng.integers(0, n, draw(st.integers(0, n)))
    X = np.vstack([X, X[dup]])
    return X, rng


# ------------------------------------------------------------------ tests


@settings(max_examples=80, deadline=None)
@given(
    tie_heavy_tables(),
    st.sampled_from([0.0, 1.0, 2.5]),
    st.sampled_from([0.0, 0.05]),
    st.sampled_from([0.0, 0.1, 1.0]),
    st.integers(1, 4),
)
def test_gradient_trees_match_oracle(table, lam, gamma, mcw, max_depth):
    X, rng = table
    g = rng.normal(size=len(X)).round(3)
    h = rng.uniform(0.01, 0.25, len(X))
    if lam == 0.0:
        mcw = max(mcw, 0.1)  # keep the denominators of both searches non-zero
    flat, gain, totals, _ = grow(presort(X), GradientStat(g, h, lam, gamma, mcw), max_depth)
    oracle = _oracle_grow(
        X,
        np.arange(len(X)),
        lambda rows: (float(g[rows].sum()), float(h[rows].sum())),
        lambda t: True,
        lambda rows, features, t: _gradient_scan(X, rows, features, g, h, lam, gamma, mcw),
        max_depth,
    )
    _assert_same_tree(flat, gain, totals, oracle)


@settings(max_examples=80, deadline=None)
@given(
    tie_heavy_tables(),
    st.integers(2, 4),
    st.sampled_from(["gini", "entropy"]),
    st.integers(1, 3),
    st.sampled_from([None, 1, 3]),
    st.booleans(),
    st.booleans(),
)
def test_count_trees_match_oracle(table, n_classes, criterion, min_leaf, max_depth, bootstrap, sample_features):
    X, rng = table
    n, d = X.shape
    y = rng.integers(0, n_classes, n)
    rows = rng.integers(0, n, n) if bootstrap else np.arange(n)
    seed = int(rng.integers(2**32))

    def picker(r):
        return (lambda: np.sort(r.choice(d, size=max(1, d // 2), replace=False))) if sample_features else None

    stat = CountStat(y[rows], n_classes, criterion, min_leaf)
    flat, gain, totals, _ = grow(presort(X[rows]), stat, max_depth, picker(np.random.default_rng(seed)))
    counts = [c for c, _ in totals]
    oracle = _oracle_grow(
        X,
        rows,
        lambda r: np.bincount(y[r], minlength=n_classes).astype(np.float64),
        lambda t: np.count_nonzero(t) > 1,
        lambda r, features, t: _count_scan(X, r, features, y, n_classes, criterion, min_leaf),
        max_depth,
        picker(np.random.default_rng(seed)),
    )
    _assert_same_tree(flat, gain, counts, oracle)


@st.composite
def near_tie_tables(draw):
    """Tables whose cuts tie in true gain: a class layout mirrored about its
    middle, the second half optionally relabelled by a class permutation,
    along integer features that read it forwards, backwards and in pairs;
    one class may hold just 2 rows, and some rows are duplicated."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n_classes = draw(st.integers(2, 4))
    half = rng.integers(0, n_classes, draw(st.integers(1, 10)))
    relabel = rng.permutation(n_classes) if draw(st.booleans()) else np.arange(n_classes)
    y = np.concatenate([half, relabel[half][::-1]])
    if draw(st.booleans()):  # a class of 2 rows, one in each half
        i = int(rng.integers(len(half)))
        y[[i, len(y) - 1 - i]] = n_classes
        n_classes += 1
    at = np.arange(len(y), dtype=float)
    X = np.column_stack([at, at[::-1], at // 2, rng.integers(0, 3, len(y))])
    dup = rng.integers(0, len(y), draw(st.integers(0, 3)))
    return np.vstack([X, X[dup]]), np.concatenate([y, y[dup]]), n_classes


@settings(max_examples=150, deadline=None)
@given(near_tie_tables(), st.sampled_from(["gini", "entropy"]), st.integers(1, 3), st.sampled_from([None, 1, 3]))
def test_count_trees_on_near_ties_match_oracle(table, criterion, min_leaf, max_depth):
    X, y, n_classes = table
    flat, gain, totals, _ = grow(presort(X), CountStat(y, n_classes, criterion, min_leaf), max_depth)
    oracle = _oracle_grow(
        X,
        np.arange(len(X)),
        lambda r: np.bincount(y[r], minlength=n_classes).astype(np.float64),
        lambda t: np.count_nonzero(t) > 1,
        lambda r, features, t: _count_scan(X, r, features, y, n_classes, criterion, min_leaf),
        max_depth,
    )
    _assert_same_tree(flat, gain, [c for c, _ in totals], oracle)


def test_rescore_window_is_load_bearing():
    # the cuts after rows 1 and 3 mirror each other and tie in entropy gain;
    # the screen's prefix sums round the later one higher, so only the exact
    # re-score keeps the formula's first maximum
    X, y = np.arange(6.0)[:, None], np.array([1, 1, 0, 0, 1, 1])

    def root_threshold():
        flat, _, _, _ = grow(presort(X), CountStat(y, 2, "entropy", 1), 1)
        return flat.threshold[0]

    assert root_threshold() == _count_scan(X, np.arange(6), [0], y, 2, "entropy", 1)[2] == 1.5
    with patch.object(trees, "RESCORE_WINDOW", 0.0):
        assert root_threshold() == 3.5


@pytest.mark.parametrize("criterion", ["gini", "entropy"])
@pytest.mark.parametrize("cells", [1, 90, 2**40])
def test_all_tied_many_class_node_rescores_in_chunks(criterion, cells):
    # each row its own class: every gini cut scores exactly 1/m, so the
    # screen keeps all of them; the re-score must take them SEARCH_CELLS // C
    # at a time and still give the oracle's tree
    n = 40
    rng = np.random.default_rng(7)
    X = np.column_stack([np.arange(n), rng.permutation(n), rng.integers(0, 6, n), np.arange(n) // 3]).astype(float)
    y = np.arange(n)
    rescored, exact = [], trees._impurity

    def impurity(counts, totals, criterion):
        rescored.append(len(counts))
        return exact(counts, totals, criterion)

    with patch.object(trees, "SEARCH_CELLS", cells), patch.object(trees, "_impurity", impurity):
        flat, gain, totals, _ = grow(presort(X), CountStat(y, n, criterion, 1))
    oracle = _oracle_grow(
        X,
        np.arange(n),
        lambda r: np.bincount(y[r], minlength=n).astype(np.float64),
        lambda t: np.count_nonzero(t) > 1,
        lambda r, features, t: _count_scan(X, r, features, y, n, criterion, 1),
        None,
    )
    _assert_same_tree(flat, gain, [c for c, _ in totals], oracle)
    chunk = max(1, cells // n)
    assert max(rescored) <= chunk
    if criterion == "gini" and chunk > n:
        assert max(rescored) > n  # the root's one block kept every cut of every feature


@settings(max_examples=25, deadline=None)
@given(tie_heavy_tables(), st.integers(1, 3), st.sampled_from([None, 2]))
def test_fitted_tree_and_forest_match_oracle(table, mtry, max_depth):
    X, rng = table
    n, d = X.shape
    y = rng.integers(0, 3, n)
    train = numeric_frame(X, labels=y, class_names=("a", "b", "c"))
    mtry = min(mtry, d)

    def oracle(rows, pick):
        return _oracle_grow(
            X,
            rows,
            lambda r: np.bincount(y[r], minlength=3).astype(np.float64),
            lambda t: np.count_nonzero(t) > 1,
            lambda r, features, t: _count_scan(X, r, features, y, 3, "gini", 1),
            max_depth,
            pick,
        )

    def check(model, o):
        assert np.array_equal(model.feature, o["feature"])
        assert np.array_equal(model.threshold, o["threshold"], equal_nan=True)
        assert np.array_equal(model.left, o["left"]) and np.array_equal(model.right, o["right"])
        assert np.array_equal(model.counts, np.vstack(o["total"]))

    check(fit_tree(train, TreeConfig(max_depth=max_depth)), oracle(np.arange(n), None))
    forest = fit_forest(train, ForestConfig(n_trees=3, mtry=mtry, max_depth=max_depth, seed=5))
    # fit_forest's sampling protocol: one generator per pre-spawned seed draws
    # the bootstrap rows, then the feature subset at each splittable node
    for tree, ss in zip(forest.trees, np.random.SeedSequence(5).spawn(3)):
        r = np.random.default_rng(ss)
        rows = r.integers(0, n, size=n)
        pick = (lambda r=r: np.sort(r.choice(d, size=mtry, replace=False))) if mtry < d else None
        check(tree, oracle(rows, pick))


@settings(max_examples=15, deadline=None)
@given(tie_heavy_tables(max_rows=20), st.integers(1, 3))
def test_boosted_trees_match_oracle(table, max_depth):
    X, rng = table
    y = rng.integers(0, 3, len(X))
    cfg = GbtConfig(rounds=3, learning_rate=0.5, max_depth=max_depth, min_child_weight=0.0)
    m = fit_gbt(numeric_frame(X, labels=y, class_names=("a", "b", "c")), cfg)
    # replay the boosting loop, growing each tree with the oracle
    Y = np.eye(3)[y]
    margins = np.tile(m.base_score, (len(X), 1))
    for r in range(cfg.rounds):
        P = np.exp(margins - margins.max(axis=1, keepdims=True))
        P /= P.sum(axis=1, keepdims=True)
        G, H = P - Y, P * (1.0 - P)
        for c in range(3):
            g, h = G[:, c], H[:, c]
            o = _oracle_grow(
                X,
                np.arange(len(X)),
                lambda rows: (float(g[rows].sum()), float(h[rows].sum())),
                lambda t: True,
                lambda rows, features, t: _gradient_scan(X, rows, features, g, h, cfg.lam, 0.0, 0.0),
                max_depth,
            )
            tree = m.trees[r * 3 + c]
            assert np.array_equal(tree.feature, o["feature"])
            assert np.array_equal(tree.threshold, o["threshold"], equal_nan=True)
            assert np.array_equal(tree.gain, o["gain"])
            assert np.array_equal(tree.weight, [-G_ / (H_ + cfg.lam) for G_, H_ in o["total"]])
            margins[:, c] += cfg.learning_rate * tree.weight[tree.route(X)]


# ------------------------------------------------- blocked search budgets

# a SEARCH_CELLS drawn as 1 (one feature per block), 2**40 (every node in one
# block), or (k, offset): k * m * width + offset for the root's m rows, so the
# root's blocks hold k or k - 1 features and the last one may be partial
budgets = st.one_of(st.just(1), st.just(2**40), st.tuples(st.integers(1, 4), st.integers(-1, 1)))


def _search_cells(budget, m, width):
    if isinstance(budget, int):
        return budget
    k, offset = budget
    return k * m * width + offset


@settings(max_examples=100, deadline=None)
@given(
    tie_heavy_tables(),
    st.sampled_from([0.0, 1.0]),
    st.sampled_from([0.0, 0.05]),
    st.sampled_from([0.0, 0.1, 1.0]),
    st.integers(1, 4),
    st.booleans(),
    budgets,
)
def test_blocked_gradient_search_matches_oracle(table, lam, gamma, mcw, max_depth, saturated, budget):
    X, rng = table
    g = rng.normal(size=len(X)).round(3)
    h = rng.uniform(0.01, 0.25, len(X))
    if saturated:
        # rows of a saturated softmax (g = h = 0): with lam 0, gains of 0/0
        # (NaN) and x/0 (inf)
        done = rng.random(len(X)) < 0.3
        g[done], h[done] = 0.0, 0.0
    try:
        with patch.object(trees, "SEARCH_CELLS", _search_cells(budget, len(X), 1)), np.errstate(all="ignore"):
            flat, gain, totals, _ = grow(presort(X), GradientStat(g, h, lam, gamma, mcw), max_depth)
            oracle = _oracle_grow(
                X,
                np.arange(len(X)),
                lambda rows: (float(g[rows].sum()), float(h[rows].sum())),
                lambda t: True,
                lambda rows, features, t: _gradient_scan(X, rows, features, g, h, lam, gamma, mcw),
                max_depth,
            )
    except NumericError:  # a node's h sums to 0 with lam 0: it has no parent score
        reject()
    _assert_same_tree(flat, gain, totals, oracle)


@settings(max_examples=100, deadline=None)
@given(
    tie_heavy_tables(),
    st.integers(2, 4),
    st.sampled_from(["gini", "entropy"]),
    st.integers(1, 3),
    st.sampled_from([None, 1, 3]),
    st.booleans(),
    st.booleans(),
    budgets,
)
def test_blocked_count_search_matches_oracle(
    table, n_classes, criterion, min_leaf, max_depth, bootstrap, sample_features, budget
):
    X, rng = table
    n, d = X.shape
    y = rng.integers(0, n_classes, n)
    rows = rng.integers(0, n, n) if bootstrap else np.arange(n)
    seed = int(rng.integers(2**32))

    def picker(r):
        # the forest's draw: a generator consumed once per splittable node
        return (lambda: np.sort(r.choice(d, size=max(1, d // 2), replace=False))) if sample_features else None

    stat = CountStat(y[rows], n_classes, criterion, min_leaf)
    with patch.object(trees, "SEARCH_CELLS", _search_cells(budget, n, 1)):
        flat, gain, totals, _ = grow(presort(X[rows]), stat, max_depth, picker(np.random.default_rng(seed)))
    oracle = _oracle_grow(
        X,
        rows,
        lambda r: np.bincount(y[r], minlength=n_classes).astype(np.float64),
        lambda t: np.count_nonzero(t) > 1,
        lambda r, features, t: _count_scan(X, r, features, y, n_classes, criterion, min_leaf),
        max_depth,
        picker(np.random.default_rng(seed)),
    )
    _assert_same_tree(flat, gain, [c for c, _ in totals], oracle)


def test_nan_gain_skips_its_feature_not_its_block():
    # feature 0's first cut is 0/0 (a saturated row first, lam 0), so its
    # first max is NaN and it never wins; feature 1, in the same block, does
    X = np.array([[0.0, 0.0], [1.0, 0.0], [2.0, 1.0], [3.0, 1.0]])
    g, h = np.array([0.0, -1.0, 1.0, 1.0]), np.array([0.0, 0.25, 0.25, 0.25])
    with patch.object(trees, "SEARCH_CELLS", 2**40), np.errstate(all="ignore"):
        flat, gain, _, _ = grow(presort(X), GradientStat(g, h, 0.0, 0.0, 0.0), 1)
    assert flat.feature.tolist() == [1, -1, -1]
    assert flat.threshold[0] == 0.5 and gain[0] > 0


def test_node_without_hessian_mass_under_lam_zero_is_a_numeric_error():
    # every row saturated (h = 0) and lam 0: the root has no Newton step
    X = np.array([[0.0], [1.0], [2.0]])
    g, h = np.array([0.0, -1.0, 1.0]), np.zeros(3)
    with pytest.raises(NumericError, match="lam"):
        grow(presort(X), GradientStat(g, h, 0.0, 0.0, 0.0), 1)
    grow(presort(X), GradientStat(g, h, 1e-12, 0.0, 0.0), 1)  # any positive lam has one
