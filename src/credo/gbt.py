"""Second-order gradient-boosted trees for the multiclass softmax objective.

Each round fits one regression tree per class to the softmax cross-entropy
gradients g = p - y and hessians h = p(1 - p). Splits greedily maximize

    gain = 1/2 [ G_L^2/(H_L+lambda) + G_R^2/(H_R+lambda)
                 - (G_L+G_R)^2/(H_L+H_R+lambda) ] - gamma

accepted only when the gain is strictly positive and both children carry at
least ``min_child_weight`` of hessian mass. Leaf weights are the Newton step
-G/(H+lambda), stored raw; the learning rate scales them at accumulation
time. Splits come from the exact search in :mod:`credo.trees`, over one
presort of the training matrix shared by every round and class. Inference
walks all trees at once through one stacked node table and adds the leaf
weights a block of rows at a time, in (round, class) order.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Annotated

import numpy as np

from .bounds import Bounded, NonNegFloat, PosInt, Range
from .errors import DataError, NumericError
from .frame import Frame
from .baselines import Classifier, softmax
from .trees import FlatTree, GradientStat, Presorted, TreeStack, grow, presort, stacked_nodes


@dataclass(frozen=True)
class RegressionTree(FlatTree):
    """Boosting tree in preorder. Leaves carry raw Newton weights; leaf
    thresholds are NaN, as :func:`credo.trees.grow` writes them."""

    weight: np.ndarray
    gain: np.ndarray


LearningRate = Annotated[float, Range(0, 1, open_low=True)]


@dataclass(frozen=True)
class GbtConfig(Bounded):
    rounds: PosInt = 100
    learning_rate: LearningRate = 0.3
    max_depth: PosInt = 6
    lam: NonNegFloat = 1.0
    gamma: NonNegFloat = 0.0
    min_child_weight: NonNegFloat = 1.0


@dataclass(frozen=True)
class BoostedEnsemble(Bounded, Classifier):
    """trees holds rounds x n_classes trees, round-major: the tree for round
    r, class c sits at index r * n_classes + c. Its settings keep its
    config's bounds, but it may have 0 rounds."""

    n_classes: int
    feature_names: tuple[str, ...]
    rounds: Annotated[int, Range(0)]
    learning_rate: LearningRate
    lam: NonNegFloat
    gamma: NonNegFloat
    min_child_weight: NonNegFloat
    base_score: np.ndarray
    trees: tuple[RegressionTree, ...]

    def __post_init__(self):
        super().__post_init__()
        if len(self.trees) != self.rounds * self.n_classes:
            raise DataError("tree count must equal rounds x n_classes")
        for t in self.trees:
            if not np.isfinite(t.weight[t.feature < 0]).all():
                raise DataError("non-finite leaf weight")

    @cached_property
    def stack(self) -> TreeStack:
        return TreeStack(self.trees)

    def predict_proba(self, X) -> np.ndarray:
        """Class probabilities: softmax over summed tree outputs plus base."""
        return softmax(extract_margins(self, X))


def _grow_tree(data: Presorted, g: np.ndarray, h: np.ndarray, cfg: GbtConfig):
    """The tree and the leaf each training row lands in."""
    stat = GradientStat(g, h, cfg.lam, cfg.gamma, cfg.min_child_weight)
    flat, gain, totals, leaf_of = grow(data, stat, cfg.max_depth)
    weight = np.array([-G / (H + cfg.lam) for G, H in totals])
    return RegressionTree(flat.feature, flat.threshold, flat.left, flat.right, weight, gain), leaf_of


def fit_gbt(train: Frame, cfg: GbtConfig | None = None) -> BoostedEnsemble:
    """Boost rounds x n_classes regression trees on softmax gradients.

    The base score is the per-class log prior (priors clipped to 1e-15, so a
    class absent from training saturates and contributes nothing further).
    """
    cfg = cfg or GbtConfig()
    X, y, n_classes = train.matrix, train.labels, train.target.n_classes
    n = len(X)
    rows = np.arange(n)
    priors = np.clip(np.bincount(y, minlength=n_classes) / n, 1e-15, None)
    base_score = np.log(priors)

    margins = np.tile(base_score, (n, 1))
    data = presort(X)  # one sort per feature serves every round and class
    trees: list[RegressionTree] = []
    for r in range(cfg.rounds):
        G = softmax(margins)
        H = G * (1.0 - G)
        G[rows, y] -= 1.0  # P - Y, in place
        if not (np.isfinite(G).all() and np.isfinite(H).all()):
            raise NumericError(f"non-finite boosting gradient at round {r}")
        for c in range(n_classes):
            tree, leaf_of = _grow_tree(data, np.ascontiguousarray(G[:, c]), np.ascontiguousarray(H[:, c]), cfg)
            trees.append(tree)
            margins[:, c] += cfg.learning_rate * tree.weight[leaf_of]

    return BoostedEnsemble(
        n_classes=n_classes,
        feature_names=train.column_names,
        rounds=cfg.rounds,
        learning_rate=cfg.learning_rate,
        lam=cfg.lam,
        gamma=cfg.gamma,
        min_child_weight=cfg.min_child_weight,
        base_score=base_score,
        trees=tuple(trees),
    )


def extract_margins(m: BoostedEnsemble, f, n_rounds: int | None = None) -> np.ndarray:
    """Pre-softmax per-class scores; ``n_rounds`` truncates the ensemble."""
    X = m._coerce(f)
    if n_rounds is None:
        n_rounds = m.rounds
    if not (0 <= n_rounds <= m.rounds):
        raise DataError(f"n_rounds must be in [0, {m.rounds}], got {n_rounds}")
    C = m.n_classes
    step = m.learning_rate * stacked_nodes(m.trees, "weight")
    margins = np.tile(m.base_score, (len(X), 1))
    for start, nodes in m.stack.blocks(X, n_rounds * C):
        block = margins[start : start + len(nodes)]
        for r in range(n_rounds):
            block += step[nodes[:, r * C : (r + 1) * C]]
    return margins


def extract_leaf_indices(m: BoostedEnsemble, f) -> np.ndarray:
    """(rows x total trees) matrix of the depth-first rank of each row's leaf
    among its tree's leaves."""
    X = m._coerce(f)
    ranks = m.stack.leaf_ranks
    return ranks[m.stack.route(X)] - ranks[m.stack.roots]
