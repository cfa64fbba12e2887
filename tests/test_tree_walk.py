"""The stacked tree walk against the per-tree router it replaced, and
booster inference pinned to golden bytes.

The oracle routes one tree at a time, level by level, and drops the rows
that have reached a leaf. The golden digests were recorded with that router
in place; inference must reproduce every float and leaf ordinal bit for bit.
"""

import hashlib
from unittest import mock

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from credo import budget
from credo.frame import numeric_frame
from credo.gbt import extract_leaf_indices, extract_margins
from credo.trees import CountStat, GradientStat, TreeStack, grow, presort
from credo.zoo import fit_model

# ----------------------------------------------------------------- oracle


def _oracle_route(tree, X):
    """Node index each row lands in, walked level by level."""
    node = np.zeros(len(X), dtype=np.int64)
    while True:
        feat = tree.feature[node]
        live = feat >= 0
        if not live.any():
            return node
        rows = np.nonzero(live)[0]
        cur = node[rows]
        go_left = X[rows, feat[live]] <= tree.threshold[cur]
        node[rows] = np.where(go_left, tree.left[cur], tree.right[cur])


def _edge_rows(X, trees):
    """X plus rows that sit exactly on every split threshold, and rows with a
    NaN or an infinity in each feature."""
    rows = []
    for tree in trees:
        for f, t in zip(tree.feature, tree.threshold):
            if f >= 0:
                row = X[len(rows) % len(X)].copy()
                row[f] = t
                rows.append(row)
    for value in (np.nan, np.inf, -np.inf):
        for f in range(X.shape[1]):
            row = X[f % len(X)].copy()
            row[f] = value
            rows.append(row)
    rows.append(np.full(X.shape[1], np.nan))
    return np.vstack([X, rows])


# -------------------------------------------------------------- the walk


@st.composite
def grown_ensembles(draw):
    """Tie-heavy training rows and 1-5 trees grown on them (or on a bootstrap
    sample) by either statistic, each to its own depth; depth 0 is a single
    leaf."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n, d = draw(st.integers(2, 30)), draw(st.integers(1, 4))
    X = rng.integers(-2, 3, (n, d)) * draw(st.sampled_from([1.0, 0.5, 0.1]))
    if draw(st.booleans()):
        X[:, 0] = rng.normal(size=n).round(2)
    y = rng.integers(0, 3, n)
    g, h = rng.normal(size=n).round(2), rng.uniform(0.05, 0.25, n)
    grown = []
    for depth in draw(st.lists(st.integers(0, 4), min_size=1, max_size=5)):
        rows = rng.integers(0, n, n) if draw(st.booleans()) else np.arange(n)
        if draw(st.booleans()):
            stat = GradientStat(g[rows], h[rows], 1.0, 0.0, 0.0)
        else:
            stat = CountStat(y[rows], 3, "gini", 1)
        tree, _, _, leaf_of = grow(presort(X[rows]), stat, depth)
        grown.append((tree, X[rows], leaf_of))
    return X, grown


@settings(max_examples=150, deadline=None)
@given(grown_ensembles(), st.integers(1, 3), st.data())
def test_stacked_walk_matches_per_tree_router(ensemble, block_rows, data):
    X, grown = ensemble
    forest = [tree for tree, _, _ in grown]
    Q = _edge_rows(X, forest)
    Q = Q[data.draw(st.permutations(range(len(Q))))[: data.draw(st.integers(0, len(Q)))]]
    want = np.column_stack([_oracle_route(t, Q) for t in forest])
    def walking(rows, n_trees):  # a budget of `rows` rows of int64 node ids
        return mock.patch.object(budget, "BLOCK_BYTES", rows * 8 * max(1, n_trees))

    stack = TreeStack(forest)
    with walking(block_rows, len(forest)):
        assert np.array_equal(stack.route(Q), want + stack.roots)
    for k in range(len(forest) + 1):
        with walking(block_rows, k):
            walked = [nodes for _, nodes in stack.blocks(Q, k)]
        assert np.array_equal(np.vstack([np.empty((0, k), int), *walked]), want[:, :k] + stack.roots[:k])
    with walking(block_rows, 1):
        for tree, rows_x, leaf_of in grown:
            assert np.array_equal(tree.route(Q), _oracle_route(tree, Q))
            assert np.array_equal(tree.route(rows_x), leaf_of)


# ---------------------------------------------------------- golden bytes

GBT_PARAMS = {"rounds": 4, "max_depth": 3, "learning_rate": 0.3, "min_child_weight": 0.0}
XGDNN_PARAMS = {
    "gbt": {"rounds": 3, "max_depth": 2, "min_child_weight": 0.0},
    "mlp": {"hidden": [8], "epochs": 5, "batch_size": 16, "seed": 0},
}

GOLDEN_BOOSTER = {
    "gbt.predict_proba": "f403ef9b97b428b3042fcbcb2b03ca480dc8d3d35c79439684a0e3b070ddac44",
    "gbt.leaf_indices": "2c6c8000d4feee091f6fccbad0be84b67222aab7754c6fa9240892f829cef1b1",
    "gbt.margins[0]": "3b5735bb130737dd7d23ca01ea76fdcf6c42053416d884f845988e861fc43ec3",
    "gbt.margins[1]": "38bd726839fecba0cbe55639b8fd3426936a4d20a749a22d713091dfc13e7fcf",
    "gbt.margins[4]": "b04d21c1b3d7133c16f19ea40d0c0feba296991fcb4e71c79adbab23f4b01443",
    "xgdnn.margins.predict_proba": "fc5a0b7f19fd7bec2cd8766847d5a080cff0517fbca96ba7d59f08f52697f11a",
    "xgdnn.leaf_onehot.predict_proba": "008c85d212c8f67f9ced9c15385bcb0bd3c012d05ffcf0503308bd5aeccc7176",
    "xgdnn.margins_plus_raw.predict_proba": "52f7a02eee6e79aaad109191144f83190a8ccaf43676024f0d488ced75aacdd0",
}


def _tie_heavy_table():
    i = np.arange(40)
    X = np.column_stack(
        [(i * 7) % 5, i % 3 == 0, ((i * i) % 11) / 2.0, np.full(40, 2.5), (i % 4) * 0.25]
    ).astype(float)
    y = (X[:, 0].astype(int) + 2 * X[:, 1].astype(int) + i % 2) % 3
    return np.vstack([X, X[::3]]), np.concatenate([y, y[::3]])


def _sha(a: np.ndarray) -> str:
    return hashlib.sha256(np.ascontiguousarray(a).tobytes()).hexdigest()


def booster_digests() -> dict:
    X, y = _tie_heavy_table()
    train = numeric_frame(X, labels=y, class_names=("a", "b", "c"))
    gbt = fit_model("gbt", train, dict(GBT_PARAMS))
    Q = _edge_rows(X, gbt.trees)
    digests = {
        "gbt.predict_proba": _sha(gbt.predict_proba(Q)),
        "gbt.leaf_indices": _sha(extract_leaf_indices(gbt, Q)),
    }
    for k in (0, 1, gbt.rounds):
        digests[f"gbt.margins[{k}]"] = _sha(extract_margins(gbt, Q, n_rounds=k))
    for mode in ("margins", "leaf_onehot", "margins_plus_raw"):
        model = fit_model("xgdnn", train, {**XGDNN_PARAMS, "feature_mode": mode})
        digests[f"xgdnn.{mode}.predict_proba"] = _sha(model.predict_proba(X))
    return digests


def test_booster_inference_bytes_are_golden():
    assert booster_digests() == GOLDEN_BOOSTER


def test_grown_leaf_of_each_training_row_is_its_walked_leaf():
    X, y = _tie_heavy_table()
    rng = np.random.default_rng(3)
    stats = (
        GradientStat(rng.normal(size=len(X)), rng.uniform(0.05, 0.25, len(X)), 1.0, 0.0, 0.0),
        CountStat(y, 3, "entropy", 1),
    )
    for stat in stats:
        tree, _, _, leaf_of = grow(presort(X), stat)
        assert np.array_equal(leaf_of, TreeStack((tree,)).route(X)[:, 0])
