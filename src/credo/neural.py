"""Feedforward network (ReLU hidden layers, softmax head) and the two-stage
hybrid that feeds boosted-tree features into it.

Training is mini-batch Adam on softmax cross-entropy in double precision,
with He-uniform initialization and a per-epoch shuffled batch order, all
drawn from one seeded generator so runs are exactly repeatable.

The hybrid trains a frozen booster first, derives per-row features from it
(class margins, leaf-membership indicators, or margins concatenated with the
raw features), then fits the network head on those.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .baselines import as_matrix, softmax
from .errors import DataError, NumericError
from .frame import Frame, numeric_frame, training_arrays
from .gbt import BoostedEnsemble, GbtConfig, extract_leaf_indices, extract_margins, fit_gbt

FEATURE_MODES = ("margins", "leaf_onehot", "margins_plus_raw")


@dataclass(frozen=True)
class MlpConfig:
    hidden: tuple[int, ...] = (128, 64)
    epochs: int = 50
    batch_size: int = 256
    learning_rate: float = 1e-3
    seed: int = 0

    def __post_init__(self):
        object.__setattr__(self, "hidden", tuple(self.hidden))  # JSON gives a list
        if any(h < 1 for h in self.hidden):
            raise DataError(f"hidden sizes must be >= 1, got {self.hidden}")
        if self.epochs < 0:
            raise DataError(f"epochs must be >= 0, got {self.epochs}")
        if self.batch_size < 1:
            raise DataError(f"batch_size must be >= 1, got {self.batch_size}")
        if self.learning_rate < 0:
            raise DataError(f"learning_rate must be >= 0, got {self.learning_rate}")


def _check_feature_mode(feature_mode: str):
    if feature_mode not in FEATURE_MODES:
        raise DataError(f"feature_mode must be one of {FEATURE_MODES}, got {feature_mode!r}")


@dataclass(frozen=True)
class XgdnnConfig:
    gbt: GbtConfig = field(default_factory=GbtConfig)
    mlp: MlpConfig = field(default_factory=MlpConfig)
    feature_mode: str = "margins"

    def __post_init__(self):
        # JSON params give each stage's settings as an object
        if isinstance(self.gbt, dict):
            object.__setattr__(self, "gbt", GbtConfig(**self.gbt))
        if isinstance(self.mlp, dict):
            object.__setattr__(self, "mlp", MlpConfig(**self.mlp))
        _check_feature_mode(self.feature_mode)


@dataclass(frozen=True)
class Mlp:
    layer_sizes: tuple[int, ...]
    weights: tuple[np.ndarray, ...]
    biases: tuple[np.ndarray, ...]
    final_loss: float | None = None

    def __post_init__(self):
        sizes = self.layer_sizes
        if len(self.weights) != len(sizes) - 1 or len(self.biases) != len(sizes) - 1:
            raise DataError("one weight/bias pair per layer transition required")
        for k, (W, b) in enumerate(zip(self.weights, self.biases)):
            if W.shape != (sizes[k], sizes[k + 1]) or b.shape != (sizes[k + 1],):
                raise DataError(f"layer {k} parameter shapes inconsistent with {sizes}")
            if not (np.isfinite(W).all() and np.isfinite(b).all()):
                raise DataError(f"layer {k} has non-finite parameters")

    @property
    def n_features(self) -> int:
        return self.layer_sizes[0]

    @property
    def n_classes(self) -> int:
        return self.layer_sizes[-1]

    def predict_proba(self, X) -> np.ndarray:
        return predict_mlp(self, X)

    def predict(self, X) -> np.ndarray:
        return self.predict_proba(X).argmax(axis=1)


def _forward(weights, biases, X):
    """Activations per layer; the last entry is the softmax output."""
    acts = [X]
    a = X
    for W, b in zip(weights[:-1], biases[:-1]):
        a = np.maximum(a @ W + b, 0.0)
        acts.append(a)
    acts.append(softmax(a @ weights[-1] + biases[-1]))
    return acts


def mlp_gradients(weights, biases, X, Y):
    """Mean cross-entropy loss and its gradients for every parameter."""
    acts = _forward(weights, biases, X)
    P = acts[-1]
    n = len(X)
    loss = -np.mean(np.log(np.clip(P[np.arange(n), Y.argmax(axis=1)], 1e-300, None)))
    delta = (P - Y) / n
    gW = [None] * len(weights)
    gb = [None] * len(biases)
    for k in range(len(weights) - 1, -1, -1):
        gW[k] = acts[k].T @ delta
        gb[k] = delta.sum(axis=0)
        if k > 0:
            delta = (delta @ weights[k].T) * (acts[k] > 0)
    return loss, gW, gb


def init_mlp(layer_sizes, seed: int | np.random.Generator) -> Mlp:
    """He-uniform weights U(+-sqrt(6/fan_in)), zero biases; ``seed`` may be a Generator."""
    rng = np.random.default_rng(seed)
    weights, biases = [], []
    for fan_in, fan_out in zip(layer_sizes, layer_sizes[1:]):
        bound = np.sqrt(6.0 / fan_in)
        weights.append(rng.uniform(-bound, bound, size=(fan_in, fan_out)))
        biases.append(np.zeros(fan_out))
    return Mlp(tuple(layer_sizes), tuple(weights), tuple(biases))


def fit_mlp(train: Frame, cfg: MlpConfig | None = None) -> Mlp:
    cfg = cfg or MlpConfig()
    X, y, n_classes = training_arrays(train)
    n, d = X.shape
    Y = np.zeros((n, n_classes))
    Y[np.arange(n), y] = 1.0

    sizes = (d, *cfg.hidden, n_classes)
    rng = np.random.default_rng(cfg.seed)  # initial weights, then the batch order
    init = init_mlp(sizes, rng)
    weights, biases = list(init.weights), list(init.biases)

    # Adam state, one slot per parameter array (weights then biases)
    params = weights + biases
    m_state = [np.zeros_like(p) for p in params]
    v_state = [np.zeros_like(p) for p in params]
    beta1, beta2, eps = 0.9, 0.999, 1e-8
    t = 0
    for epoch in range(cfg.epochs):
        order = rng.permutation(n)
        for start in range(0, n, cfg.batch_size):
            batch = order[start : start + cfg.batch_size]
            loss, gW, gb = mlp_gradients(weights, biases, X[batch], Y[batch])
            if not np.isfinite(loss):
                raise NumericError(
                    f"non-finite loss at epoch {epoch}, batch {start // cfg.batch_size}"
                )
            t += 1
            grads = gW + gb
            for p, g, m_s, v_s in zip(params, grads, m_state, v_state):
                m_s *= beta1
                m_s += (1 - beta1) * g
                v_s *= beta2
                v_s += (1 - beta2) * g * g
                m_hat = m_s / (1 - beta1**t)
                v_hat = v_s / (1 - beta2**t)
                p -= cfg.learning_rate * m_hat / (np.sqrt(v_hat) + eps)

    final_loss, _, _ = mlp_gradients(weights, biases, X, Y)
    return Mlp(sizes, tuple(weights), tuple(biases), float(final_loss))


def predict_mlp(m: Mlp, f) -> np.ndarray:
    X = as_matrix(f)
    if X.shape[1] != m.n_features:
        raise DataError(f"network expects {m.n_features} features, got {X.shape[1]}")
    return _forward(m.weights, m.biases, X)[-1]


# ------------------------------------------------------------ hybrid model


@dataclass(frozen=True)
class HybridXgDnn:
    booster: BoostedEnsemble
    feature_mode: str
    head: Mlp

    def __post_init__(self):
        _check_feature_mode(self.feature_mode)

    @property
    def n_classes(self) -> int:
        return self.head.n_classes

    @property
    def n_features(self) -> int:
        return self.booster.n_features

    def predict_proba(self, X) -> np.ndarray:
        return predict_hybrid(self, X)

    def predict(self, X) -> np.ndarray:
        return self.predict_proba(X).argmax(axis=1)


def derive_features(booster: BoostedEnsemble, f, feature_mode: str) -> np.ndarray:
    """Per-row head inputs from a frozen booster.

    margins: C pre-softmax scores. leaf_onehot: one indicator per leaf of
    every tree (each row sums to the tree count). margins_plus_raw: margins
    next to the raw features.
    """
    X = as_matrix(f)
    if feature_mode == "margins":
        return extract_margins(booster, X)
    if feature_mode == "margins_plus_raw":
        return np.hstack([extract_margins(booster, X), X])
    if feature_mode == "leaf_onehot":
        idx = extract_leaf_indices(booster, X)
        widths = [t.n_leaves for t in booster.trees]
        offsets = np.concatenate([[0], np.cumsum(widths)[:-1]])
        out = np.zeros((len(X), int(sum(widths))))
        flat = idx + offsets  # broadcast per-tree offsets across columns
        np.put_along_axis(out, flat, 1.0, axis=1)
        return out
    raise DataError(f"feature_mode must be one of {FEATURE_MODES}")


def fit_hybrid(
    train: Frame,
    gbt_cfg: GbtConfig | None = None,
    mlp_cfg: MlpConfig | None = None,
    feature_mode: str = "margins",
) -> HybridXgDnn:
    """Stage 1 boosts on raw features; stage 2 fits the network head on the
    derived features. The booster is frozen before stage 2 begins."""
    booster = fit_gbt(train, gbt_cfg)
    Z = derive_features(booster, train, feature_mode)
    head_train = numeric_frame(
        Z, [f"z{i}" for i in range(Z.shape[1])], target=train.target
    )
    head = fit_mlp(head_train, mlp_cfg)
    return HybridXgDnn(booster, feature_mode, head)


def predict_hybrid(h: HybridXgDnn, f) -> np.ndarray:
    Z = derive_features(h.booster, f, h.feature_mode)
    return predict_mlp(h.head, Z)
