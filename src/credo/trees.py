"""Exact greedy split search shared by CART, the random forest and the booster.

Each feature is sorted once per fit (:func:`presort`). A node holds its rows
as a (d, m) block with every feature's row ids in ascending stable order, and
a split hands each child the stable boolean partition of that block, so no
node sorts again: the pre-sorted column-block method of XGBoost (Chen &
Guestrin, KDD 2016, section 4.1). Candidate thresholds are the midpoints of
adjacent distinct sorted values, scored from prefix sums of a node statistic:
gradient and hessian sums for boosting (:class:`GradientStat`), class counts
for CART (:class:`CountStat`). A node's features are scored a block at a
time: as many rows of its sorted block as fit in ``SEARCH_CELLS`` cells of
statistic share one round of numpy calls, so a small node pays call overhead
per block rather than per feature, and a node too large for two features
goes one feature per call. A node splits on the largest strictly positive gain; ties go to the smallest
feature index, then the smallest threshold. Trees grow depth-first into flat
preorder arrays.

Inference stacks the node arrays of a sequence of trees into one table
(:class:`TreeStack`) and walks every tree at once, a block of rows at a time:
the flat-array form of scoring a whole ensemble together (QuickScorer,
Lucchese et al., SIGIR 2015).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import NumericError

BLOCK_ROWS = 1024  # rows walked together; temporaries are BLOCK_ROWS x trees
SEARCH_CELLS = 32768  # split search: features scored together x node rows x stat width


@dataclass(frozen=True)
class FlatTree:
    """Preorder node arrays. ``feature[i] < 0`` marks a leaf; rows with
    ``x[feature] <= threshold`` go to ``left``, the others (NaN included)
    to ``right``."""

    feature: np.ndarray
    threshold: np.ndarray
    left: np.ndarray
    right: np.ndarray

    @property
    def n_leaves(self) -> int:
        return int((self.feature < 0).sum())

    @cached_property
    def stack(self) -> TreeStack:
        return TreeStack((self,))

    def route(self, X: np.ndarray) -> np.ndarray:
        """Node index each row lands in: the one-tree walk."""
        return self.stack.route(X)[:, 0]


def stacked_nodes(trees, key: str, dtype=np.float64) -> np.ndarray:
    """One per-node array of each tree, end to end: indexed by TreeStack
    node ids."""
    return np.concatenate([np.empty(0, dtype), *(getattr(t, key) for t in trees)])


class TreeStack:
    """The nodes of a sequence of trees in one table, walked all at once.

    Tree t's nodes follow tree t-1's, so node ids are global and
    ``roots[t]`` is tree t's first node. Each leaf is a self-loop (feature
    0, threshold +inf, both children itself), so a row takes exactly
    ``depth`` steps down every tree, ``node = children[2 node + not (x <=
    threshold)]``, with no bookkeeping of the rows that have arrived.
    """

    def __init__(self, trees):
        sizes = [len(t.feature) for t in trees]
        self.roots = np.cumsum([0, *sizes])[:-1]
        offset = np.repeat(self.roots, sizes)
        feature = stacked_nodes(trees, "feature", np.int64)
        leaf = feature < 0
        left = stacked_nodes(trees, "left", np.int64) + offset
        right = stacked_nodes(trees, "right", np.int64) + offset
        self.depth, level = 0, self.roots
        while (inner := level[~leaf[level]]).size:
            self.depth, level = self.depth + 1, np.concatenate([left[inner], right[inner]])
        node = np.arange(len(feature))
        self.feature = np.where(leaf, 0, feature)
        self.threshold = np.where(leaf, np.inf, stacked_nodes(trees, "threshold"))
        self.children = np.column_stack([np.where(leaf, node, left), np.where(leaf, node, right)]).ravel()

    def blocks(self, X: np.ndarray, n_trees: int | None = None):
        """Yield ``(start, nodes)`` per block of BLOCK_ROWS rows of X, where
        ``nodes[i, t]`` is the id of the leaf that row start + i reaches in
        tree t, for the first ``n_trees`` trees (all by default)."""
        roots = self.roots[:n_trees]
        for start in range(0, len(X), BLOCK_ROWS):
            x = X[start : start + BLOCK_ROWS]
            at = np.arange(0, x.size, x.shape[1])[:, None]  # each row's offset in x.ravel()
            x = x.ravel()
            node = np.tile(roots, (len(at), 1))
            for _ in range(self.depth):
                go_right = ~(x[at + self.feature[node]] <= self.threshold[node])
                node = self.children[2 * node + go_right]
            yield start, node

    def route(self, X: np.ndarray) -> np.ndarray:
        """(rows x trees) matrix of the leaf each row reaches in each tree."""
        out = np.empty((len(X), len(self.roots)), dtype=np.int64)
        for start, nodes in self.blocks(X):
            out[start : start + len(nodes)] = nodes
        return out


@dataclass(frozen=True)
class Presorted:
    """Feature-major copy of X (d, n) and each feature's row ids sorted by
    (value, row id)."""

    values: np.ndarray
    orders: np.ndarray


def presort(X: np.ndarray) -> Presorted:
    values = np.ascontiguousarray(X.T)
    return Presorted(values, np.argsort(values, axis=1, kind="stable"))


class GradientStat:
    """Second-order boosting statistic: a node's total is (sum g, sum h), and
    each child must keep ``min_child_weight`` of hessian mass. A node whose
    hessian sum plus ``lam`` is 0 has no Newton step and fails the fit."""

    width = 1  # cells of statistic per row

    def __init__(self, g, h, lam, gamma, min_child_weight):
        self.g, self.h = g, h
        self.lam, self.gamma, self.min_child_weight = lam, gamma, min_child_weight

    def total(self, rows):
        G, H = float(self.g[rows].sum()), float(self.h[rows].sum())
        if H + self.lam == 0:
            raise NumericError("a node's hessian sum plus lam is 0; boost with lam > 0")
        return G, H

    def splittable(self, total) -> bool:
        return True

    def gains(self, orders, cut, total):
        """(k, m-1) gain of cutting each sorted row of the (k, m) ``orders``
        after each position; -inf where ``cut`` is False or a child would be
        too light."""
        G, H = total
        lam, mcw = self.lam, self.min_child_weight
        # 0.5 * (GL^2/(HL+lam) + GR^2/(HR+lam) - G^2/(H+lam)) - gamma, computed
        # in place in the formula's own operation order: four float (k, m-1)
        # arrays and the same rounding as the formula written out. Prefix
        # sums stop before each row's last position, after which no cut lies.
        GL = np.cumsum(self.g.take(orders[:, :-1]), axis=1)
        HL = np.cumsum(self.h.take(orders[:, :-1]), axis=1)
        ok = cut & (HL >= mcw)
        gain = np.multiply(GL, GL)
        denom = np.add(HL, lam)
        gain /= denom
        GR = np.subtract(G, GL, out=GL)
        HR = np.subtract(H, HL, out=HL)
        ok &= HR >= mcw
        right = np.multiply(GR, GR, out=GR)
        right /= np.add(HR, lam, out=denom)
        gain += right
        gain -= G * G / (H + lam)
        gain *= 0.5
        gain -= self.gamma
        gain[~ok] = -np.inf
        return gain


def _impurity(counts: np.ndarray, totals, criterion: str) -> np.ndarray:
    """Gini or entropy of each row of a class-count matrix whose rows sum to
    ``totals``."""
    p = counts / totals
    if criterion == "gini":
        return 1.0 - (p * p).sum(axis=1)
    logp = np.where(p > 0, np.log(np.where(p > 0, p, 1.0)), 0.0)
    return -(p * logp).sum(axis=1)


class CountStat:
    """CART statistic: a node's total is its class histogram and impurity,
    and each child must keep at least ``min_leaf`` rows."""

    def __init__(self, y, n_classes, criterion, min_leaf):
        self.y, self.n_classes = y, n_classes
        self.criterion, self.min_leaf = criterion, min_leaf
        self.onehot = np.eye(n_classes, dtype=np.int32)
        self.width = n_classes

    def total(self, rows):
        counts = np.bincount(self.y[rows], minlength=self.n_classes).astype(np.float64)
        return counts, _impurity(counts[None, :], len(rows), self.criterion)[0]

    def splittable(self, total) -> bool:
        return np.count_nonzero(total[0]) > 1

    def gains(self, orders, cut, total):
        """(k, m-1) impurity decrease of cutting each sorted row of the (k, m)
        ``orders`` after each position; -inf where ``cut`` is False or a
        child would be too small."""
        counts, parent = total
        m = orders.shape[1]
        left_n = np.arange(1, m)
        at, pos = np.nonzero(cut & (left_n >= self.min_leaf) & (m - left_n >= self.min_leaf))
        left = np.cumsum(self.onehot.take(self.y.take(orders), axis=0), axis=1, dtype=np.int32)[at, pos]
        left_n = left_n[pos]
        gain = np.full(cut.shape, -np.inf)
        gain[at, pos] = (
            parent
            - (left_n / m) * _impurity(left, left_n[:, None], self.criterion)
            - ((m - left_n) / m) * _impurity(counts - left, (m - left_n)[:, None], self.criterion)
        )
        return gain


def grow(data: Presorted, stat, max_depth: int | None = None, pick=None):
    """Grow one tree over every row of ``data``, in preorder.

    ``pick()``, when given, is called at each node that may split and returns
    the ascending feature ids to search there; otherwise all are searched.
    Returns the tree (leaf thresholds NaN), each node's split gain (0 at
    leaves), each node's statistic total and the leaf each row of ``data``
    lands in.
    """
    values = data.values
    d, n = values.shape
    flat_values = values.ravel()
    go = np.zeros(n, dtype=bool)
    leaf_of = np.empty(n, dtype=np.int64)  # each node on a row's path overwrites it
    feature, threshold, left, right, gains, totals = [], [], [], [], [], []

    def search(orders, total):
        best_gain, best_feature, best_threshold = 0.0, -1, 0.0
        features = np.arange(d) if pick is None else pick()
        m = orders.shape[1]
        k = max(1, SEARCH_CELLS // (m * stat.width))
        for start in range(0, len(features), k):
            fs = features[start : start + k]
            block = orders[start : start + k] if pick is None else orders[fs]
            xs = flat_values[block + n * fs[:, None]]
            cut = xs[:, :-1] != xs[:, 1:]
            if not cut.any():
                continue
            gain = stat.gains(block, cut, total)
            at = gain.argmax(axis=1)  # first max: smallest threshold
            best = gain[np.arange(len(fs)), at]
            best[np.isnan(best)] = -np.inf  # a feature whose first max is NaN never wins
            j = int(best.argmax())
            if best[j] > best_gain:  # strict: smallest feature wins ties
                best_gain = float(best[j])
                best_feature = int(fs[j])
                best_threshold = float(0.5 * (xs[j, at[j]] + xs[j, at[j] + 1]))
        return best_gain, best_feature, best_threshold

    # pending nodes: (rows, sorted block, depth, parent's child list, parent).
    # rows stay ascending, so node totals sum in row order. The left child is
    # pushed last so it is numbered first. Pending blocks cover disjoint rows,
    # so together they never hold more than one (d, n) block. Children at
    # max_depth are never searched, so they get no block (None).
    stack = [(np.arange(n), data.orders, 0, None, -1)]
    while stack:
        rows, orders, depth, child_of, parent = stack.pop()
        i = len(feature)
        if parent >= 0:
            child_of[parent] = i
        total = stat.total(rows)
        leaf_of[rows] = i
        feature.append(-1)
        threshold.append(np.nan)
        left.append(-1)
        right.append(-1)
        gains.append(0.0)
        totals.append(total)
        if (max_depth is not None and depth >= max_depth) or not stat.splittable(total):
            continue
        gain, f, t = search(orders, total)
        if f < 0:
            continue
        feature[i], threshold[i], gains[i] = f, t, gain
        go[rows] = values[f, rows] <= t
        go_left = go[rows]
        left_orders = right_orders = None
        if max_depth is None or depth + 1 < max_depth:
            keep = go[orders].ravel()
            left_orders = orders.compress(keep).reshape(d, -1)
            right_orders = orders.compress(~keep).reshape(d, -1)
        stack.append((rows[~go_left], right_orders, depth + 1, right, i))
        stack.append((rows[go_left], left_orders, depth + 1, left, i))

    tree = FlatTree(
        np.array(feature, dtype=np.int64),
        np.array(threshold, dtype=np.float64),
        np.array(left, dtype=np.int64),
        np.array(right, dtype=np.int64),
    )
    return tree, np.array(gains, dtype=np.float64), totals, leaf_of
