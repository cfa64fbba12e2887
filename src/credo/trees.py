"""Exact greedy split search shared by CART, the random forest and the booster.

Each feature is sorted once per fit (:func:`presort`). A node holds its rows
as a (d, m) block with every feature's row ids in ascending stable order, and
a split hands each child the stable boolean partition of that block, so no
node sorts again: the pre-sorted column-block method of XGBoost (Chen &
Guestrin, KDD 2016, section 4.1). Candidate thresholds are the midpoints of
adjacent distinct sorted values, scored from prefix sums of a node statistic:
gradient and hessian sums for boosting (:class:`GradientStat`), class counts
for CART (:class:`CountStat`), which screens every cut in O(m) per feature
and re-scores only the near-best ones with the impurity formula. A node's
features are scored a block at a time: as many rows of its sorted block as
fit in ``SEARCH_CELLS`` cells share one round of numpy calls, so a small node
pays call overhead per block rather than per feature, and a node too large
for two features goes one feature per call. A node splits on the largest
strictly positive gain; ties go to the smallest feature index, then the
smallest threshold. Trees grow depth-first into flat preorder arrays.

Inference stacks the node arrays of a sequence of trees into one table
(:class:`TreeStack`) and walks every tree at once, a block of rows at a time:
the flat-array form of scoring a whole ensemble together (QuickScorer,
Lucchese et al., SIGIR 2015). A block holds one int64 node id per (row,
tree) within the memory budget of :mod:`credo.budget`, so the more trees,
the fewer rows: 1,092 rows for 60 trees, 65 for 1,000. Every leaf's
threshold is NaN, and a leaf's depth-first rank is derived from the stack's
leaf mask, never stored.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .budget import block_rows
from .errors import NumericError

SEARCH_CELLS = 32768  # split search: features scored together x node rows
RESCORE_WINDOW = 8.0  # CART cuts re-scored exactly: see CountStat
EPS = float(np.finfo(np.float64).eps)


@dataclass(frozen=True)
class FlatTree:
    """Preorder node arrays. ``feature[i] < 0`` marks a leaf; rows with
    ``x[feature] <= threshold`` go to ``left``, the others (NaN included)
    to ``right``."""

    feature: np.ndarray
    threshold: np.ndarray
    left: np.ndarray
    right: np.ndarray

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
    ``leaf`` marks the leaves and ``leaf_ranks[i]`` counts the leaves ahead
    of node i: at a leaf, its depth-first rank among all the stack's leaves.
    """

    def __init__(self, trees):
        sizes = [len(t.feature) for t in trees]
        self.roots = np.cumsum([0, *sizes])[:-1]
        offset = np.repeat(self.roots, sizes)
        feature = stacked_nodes(trees, "feature", np.int64)
        self.leaf = leaf = feature < 0
        self.leaf_ranks = np.cumsum(leaf) - leaf
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
        """Yield ``(start, nodes)`` per block of rows of X, where
        ``nodes[i, t]`` is the id of the leaf that row start + i reaches in
        tree t, for the first ``n_trees`` trees (all by default). The
        temporaries of a block are (rows x trees) cells within the budget."""
        roots = self.roots[:n_trees]
        rows = block_rows(len(roots), self.children.itemsize)
        for start in range(0, len(X), rows):
            x = X[start : start + rows]
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
    and each child must keep at least ``min_leaf`` rows.

    A block's cuts are screened in O(m) per feature. Group the node's rows
    by class, each group in the feature's order (a stable sort of the class
    ids); the row at slot t of class c's group has rank r = t - start(c),
    the number of earlier rows of its class. Cutting after that row moves
    it from right to left, so each child's statistic is a prefix sum of
    per-row increments that depend only on r and the class total N:

    - gini: the sum of squared left counts grows by 2r + 1 and the right
      one shrinks by 2(N - r) - 1, both exact integers, and the gain is
      parent - 1 + (sum L^2 / L + sum R^2 / R) / m;
    - entropy: with f(x) = x ln x, sum f(left counts) grows by
      f(r + 1) - f(r) and sum f(right counts) by f(N - r - 1) - f(N - r),
      and the gain is parent - (f(L) - sum f(l) + f(R) - sum f(r)) / m.

    The screen rounds differently from the impurity formula that fixes a
    tree's bytes. So every cut whose screened gain lies within a window of
    ``RESCORE_WINDOW`` eps (m + C)(1 + ln(m + C)) of the block's best is
    re-scored with ``_impurity``, and every other cut scores -inf. The
    window is more than twice the worst rounding of the two gains together:
    about eps (m + 3) ln(m) for the entropy prefix sums, a few eps for the
    exact gini sums, and about eps (C + 5) ln(C + 2) for the formula over C
    classes. So the block's first maximum by the formula is always
    re-scored, and gains, thresholds and ties are the formula's own. When
    cuts tie, every one may be kept, so the re-score takes them
    ``SEARCH_CELLS // C`` at a time and holds about ``SEARCH_CELLS`` (cut,
    class) cells at once.
    """

    def __init__(self, y, n_classes, criterion, min_leaf):
        # 8 or 16 bits wide for fewer than 65,537 classes, where a stable
        # argsort is a radix sort
        self.y = y.astype(np.min_scalar_type(n_classes - 1))
        self.n_classes = n_classes
        self.criterion, self.min_leaf = criterion, min_leaf

    def total(self, rows):
        counts = np.bincount(self.y[rows], minlength=self.n_classes).astype(np.float64)
        return counts, _impurity(counts[None, :], len(rows), self.criterion)[0]

    def splittable(self, total) -> bool:
        return np.count_nonzero(total[0]) > 1

    def gains(self, orders, cut, total):
        """(k, m-1) impurity decrease of cutting each sorted row of the (k, m)
        ``orders`` after each position; -inf where ``cut`` is False, a child
        would be too small, or the screen rules the cut out."""
        counts, parent = total
        k, m = orders.shape
        C = self.n_classes
        N = counts.astype(np.int64)
        starts = np.cumsum(N) - N
        slot_class = np.repeat(np.arange(C), N)  # slots hold the rows class by class
        rank = np.arange(m) - starts[slot_class]
        N_slot = N[slot_class]
        # slots[j, t] is feature j's sorted position of the row at slot t;
        # slot_at[j, p] inverts it, for every position after which a cut lies
        slots = np.argsort(self.y.take(orders), axis=1, kind="stable")
        rows = np.arange(k)[:, None]
        slot_at = np.empty((k, m), dtype=np.intp)
        slot_at[rows, slots] = np.arange(m)
        slot_at = slot_at[:, :-1]
        left_n = np.arange(1, m)
        right_n = m - left_n
        if self.criterion == "gini":  # m (gain - parent + 1) = sum L^2 / L + sum R^2 / R
            score = np.cumsum((2 * rank + 1).take(slot_at), axis=1) / left_n
            score += (N @ N - np.cumsum((2 * (N_slot - rank) - 1).take(slot_at), axis=1)) / right_n
        else:  # m (gain - parent) = sum f(l) - f(L) + sum f(r) - f(R)
            f = np.arange(m + 1.0)
            f *= np.log(np.maximum(f, 1.0))
            step = f[rank + 1] - f[rank] - f[N_slot - rank] + f[N_slot - rank - 1]
            score = np.cumsum(step.take(slot_at), axis=1)
            score += f[N].sum() - f[left_n] - f[right_n]
        ok = cut & (np.minimum(left_n, right_n) >= self.min_leaf)
        window = RESCORE_WINDOW * EPS * m * (m + C) * (1 + math.log(m + C))  # in units of m gain
        kept = np.flatnonzero(ok & (score >= score.max(where=ok, initial=-np.inf) - window))

        # class counts left of each re-scored cut. Keyed by (feature, class,
        # position), the block's slots ascend in one flat array, so one search
        # counts the slots of each class at or before each cut. Ties can keep
        # every cut, so they are re-scored SEARCH_CELLS // C at a time
        keys = (slots + m * slot_class + (C * m) * rows).ravel()
        gain = np.full(cut.shape, -np.inf)
        chunk = max(1, SEARCH_CELLS // C)
        for start in range(0, len(kept), chunk):
            at, pos = np.divmod(kept[start : start + chunk], m - 1)
            cuts = (C * m) * at[:, None] + m * np.arange(C) + pos[:, None]
            left = np.searchsorted(keys, cuts, side="right") - m * at[:, None] - starts
            nl, nr = left_n[pos], right_n[pos]
            gain[at, pos] = (
                parent
                - (nl / m) * _impurity(left, nl[:, None], self.criterion)
                - (nr / m) * _impurity(counts - left, nr[:, None], self.criterion)
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
        k = max(1, SEARCH_CELLS // m)
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
