"""Second-order gradient-boosted trees for the multiclass softmax objective.

Each round fits one regression tree per class to the softmax cross-entropy
gradients g = p - y and hessians h = p(1 - p). Splits greedily maximize

    gain = 1/2 [ G_L^2/(H_L+lambda) + G_R^2/(H_R+lambda)
                 - (G_L+G_R)^2/(H_L+H_R+lambda) ] - gamma

accepted only when the gain is strictly positive and both children carry at
least ``min_child_weight`` of hessian mass. Leaf weights are the Newton step
-G/(H+lambda), stored raw; the learning rate scales them at accumulation
time. Split enumeration is exact over midpoints of sorted distinct values,
ties broken to the smallest feature index, then the smallest threshold.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DataError, NumericError
from .frame import Frame, training_arrays
from .baselines import as_matrix, softmax


@dataclass(frozen=True)
class RegressionTree:
    """Flat-array tree in preorder. ``feature[i] < 0`` marks a leaf; leaves
    carry raw Newton weights and a depth-first leaf ordinal."""

    feature: np.ndarray
    threshold: np.ndarray
    left: np.ndarray
    right: np.ndarray
    weight: np.ndarray
    gain: np.ndarray
    leaf_ordinal: np.ndarray

    @property
    def n_leaves(self) -> int:
        return int((self.feature < 0).sum())

    def route(self, X: np.ndarray) -> np.ndarray:
        """Node index each row lands in, walked level by level."""
        node = np.zeros(len(X), dtype=np.int64)
        while True:
            feat = self.feature[node]
            live = feat >= 0
            if not live.any():
                return node
            rows = np.nonzero(live)[0]
            cur = node[rows]
            go_left = X[rows, feat[live]] <= self.threshold[cur]
            node[rows] = np.where(go_left, self.left[cur], self.right[cur])

    def outputs(self, X: np.ndarray) -> np.ndarray:
        return self.weight[self.route(X)]

    def leaf_indices(self, X: np.ndarray) -> np.ndarray:
        return self.leaf_ordinal[self.route(X)]


@dataclass(frozen=True)
class GbtConfig:
    rounds: int = 100
    learning_rate: float = 0.3
    max_depth: int = 6
    lam: float = 1.0
    gamma: float = 0.0
    min_child_weight: float = 1.0
    seed: int = 0  # reserved; exact greedy training is fully deterministic

    def __post_init__(self):
        if self.rounds < 1:
            raise DataError(f"rounds must be >= 1, got {self.rounds}")
        if not (0.0 < self.learning_rate <= 1.0):
            raise DataError(f"learning_rate must be in (0, 1], got {self.learning_rate}")
        if self.max_depth < 1:
            raise DataError(f"max_depth must be >= 1, got {self.max_depth}")
        if self.lam < 0 or self.gamma < 0 or self.min_child_weight < 0:
            raise DataError("lam, gamma and min_child_weight must be >= 0")


@dataclass(frozen=True)
class BoostedEnsemble:
    """trees holds rounds x n_classes trees, round-major: the tree for round
    r, class c sits at index r * n_classes + c."""

    n_classes: int
    n_features: int
    rounds: int
    learning_rate: float
    lam: float
    gamma: float
    min_child_weight: float
    base_score: np.ndarray
    trees: tuple[RegressionTree, ...]

    def __post_init__(self):
        if len(self.trees) != self.rounds * self.n_classes:
            raise DataError("tree count must equal rounds x n_classes")
        for t in self.trees:
            if not np.isfinite(t.weight[t.feature < 0]).all():
                raise DataError("non-finite leaf weight")

    def predict_proba(self, X) -> np.ndarray:
        return predict_gbt(self, X)

    def predict(self, X) -> np.ndarray:
        return np.argmax(self.predict_proba(X), axis=1)


class _TreeBuilder:
    def __init__(self, X, g, h, cfg: GbtConfig):
        self.X = X
        self.g = g
        self.h = h
        self.cfg = cfg
        self.feature: list[int] = []
        self.threshold: list[float] = []
        self.left: list[int] = []
        self.right: list[int] = []
        self.weight: list[float] = []
        self.gain: list[float] = []
        self.ordinal: list[int] = []
        self.n_leaves = 0

    def _search(self, rows, G_sum, H_sum):
        cfg = self.cfg
        parent = G_sum * G_sum / (H_sum + cfg.lam)
        best_gain, best_feature, best_threshold = 0.0, -1, 0.0
        for j in range(self.X.shape[1]):
            xs = self.X[rows, j]
            order = np.argsort(xs, kind="stable")
            xs = xs[order]
            if xs[0] == xs[-1]:
                continue
            gs = np.cumsum(self.g[rows][order])
            hs = np.cumsum(self.h[rows][order])
            cut = np.nonzero(xs[:-1] != xs[1:])[0]
            GL, HL = gs[cut], hs[cut]
            GR, HR = G_sum - GL, H_sum - HL
            ok = (HL >= cfg.min_child_weight) & (HR >= cfg.min_child_weight)
            if not ok.any():
                continue
            gain = 0.5 * (GL * GL / (HL + cfg.lam) + GR * GR / (HR + cfg.lam) - parent) - cfg.gamma
            gain[~ok] = -np.inf
            k = int(np.argmax(gain))  # first max: smallest threshold
            if gain[k] > best_gain:
                best_gain = float(gain[k])
                best_feature = j
                best_threshold = float(0.5 * (xs[cut[k]] + xs[cut[k] + 1]))
        if best_feature < 0:
            return None
        return best_gain, best_feature, best_threshold

    def build(self, rows, depth) -> int:
        i = len(self.feature)
        self.feature.append(-1)
        self.threshold.append(0.0)
        self.left.append(-1)
        self.right.append(-1)
        self.weight.append(0.0)
        self.gain.append(0.0)
        self.ordinal.append(-1)
        G_sum = float(self.g[rows].sum())
        H_sum = float(self.h[rows].sum())
        self.weight[i] = -G_sum / (H_sum + self.cfg.lam)
        found = self._search(rows, G_sum, H_sum) if depth < self.cfg.max_depth else None
        if found is None:
            self.ordinal[i] = self.n_leaves
            self.n_leaves += 1
            return i
        gain, feature, threshold = found
        self.feature[i] = feature
        self.threshold[i] = threshold
        self.gain[i] = gain
        go_left = self.X[rows, feature] <= threshold
        self.left[i] = self.build(rows[go_left], depth + 1)
        self.right[i] = self.build(rows[~go_left], depth + 1)
        return i

    def tree(self) -> RegressionTree:
        return RegressionTree(
            feature=np.array(self.feature, dtype=np.int64),
            threshold=np.array(self.threshold, dtype=np.float64),
            left=np.array(self.left, dtype=np.int64),
            right=np.array(self.right, dtype=np.int64),
            weight=np.array(self.weight, dtype=np.float64),
            gain=np.array(self.gain, dtype=np.float64),
            leaf_ordinal=np.array(self.ordinal, dtype=np.int64),
        )


def fit_gbt(train: Frame, cfg: GbtConfig | None = None) -> BoostedEnsemble:
    """Boost rounds x n_classes regression trees on softmax gradients.

    The base score is the per-class log prior (priors clipped to 1e-15, so a
    class absent from training saturates and contributes nothing further).
    """
    cfg = cfg or GbtConfig()
    X, y, n_classes = training_arrays(train)
    n = len(X)
    Y = np.zeros((n, n_classes))
    Y[np.arange(n), y] = 1.0
    priors = np.clip(np.bincount(y, minlength=n_classes) / n, 1e-15, None)
    base_score = np.log(priors)

    margins = np.tile(base_score, (n, 1))
    all_rows = np.arange(n)
    trees: list[RegressionTree] = []
    for r in range(cfg.rounds):
        P = softmax(margins)
        G = P - Y
        H = P * (1.0 - P)
        if not (np.isfinite(G).all() and np.isfinite(H).all()):
            raise NumericError(f"non-finite boosting gradient at round {r}")
        for c in range(n_classes):
            builder = _TreeBuilder(X, G[:, c], H[:, c], cfg)
            builder.build(all_rows, 0)
            tree = builder.tree()
            trees.append(tree)
            margins[:, c] += cfg.learning_rate * tree.outputs(X)

    return BoostedEnsemble(
        n_classes=n_classes,
        n_features=X.shape[1],
        rounds=cfg.rounds,
        learning_rate=cfg.learning_rate,
        lam=cfg.lam,
        gamma=cfg.gamma,
        min_child_weight=cfg.min_child_weight,
        base_score=base_score,
        trees=tuple(trees),
    )


def _coerce(m: BoostedEnsemble, f) -> np.ndarray:
    X = as_matrix(f)
    if X.shape[1] != m.n_features:
        raise DataError(f"ensemble expects {m.n_features} features, got {X.shape[1]}")
    return X


def extract_margins(m: BoostedEnsemble, f, n_rounds: int | None = None) -> np.ndarray:
    """Pre-softmax per-class scores; ``n_rounds`` truncates the ensemble."""
    X = _coerce(m, f)
    if n_rounds is None:
        n_rounds = m.rounds
    if not (0 <= n_rounds <= m.rounds):
        raise DataError(f"n_rounds must be in [0, {m.rounds}], got {n_rounds}")
    margins = np.tile(m.base_score, (len(X), 1))
    for r in range(n_rounds):
        for c in range(m.n_classes):
            tree = m.trees[r * m.n_classes + c]
            margins[:, c] += m.learning_rate * tree.outputs(X)
    return margins


def predict_gbt(m: BoostedEnsemble, f) -> np.ndarray:
    """Class probabilities: softmax over summed tree outputs plus base."""
    return softmax(extract_margins(m, f))


def extract_leaf_indices(m: BoostedEnsemble, f) -> np.ndarray:
    """(rows x total trees) matrix of depth-first leaf ordinals."""
    X = _coerce(m, f)
    out = np.empty((len(X), len(m.trees)), dtype=np.int64)
    for t, tree in enumerate(m.trees):
        out[:, t] = tree.leaf_indices(X)
    return out
