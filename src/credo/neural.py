"""Feedforward network (ReLU hidden layers, softmax head) and the two-stage
hybrid that feeds boosted-tree features into it.

Training is mini-batch Adam on softmax cross-entropy in double precision,
with He-uniform initialization and a per-epoch shuffled batch order, all
drawn from one seeded generator so runs are exactly repeatable. The
layers' products, bias adds and ReLUs and the Adam update run in place in
arrays made once per fit, and each layer's weight gradient is a matrix
product written straight into the flat gradient vector that the update
reads; a step allocates only the softmax's and the back-propagation's
arrays, one row per batch row.

The hybrid trains a frozen booster first, derives per-row features from it
(class margins, leaf-membership indicators, or margins concatenated with the
raw features), then fits the network head on those.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Literal

import numpy as np

from .baselines import Classifier, cross_entropy, softmax
from .bounds import Bounded, NonNegFloat, NonNegInt, PosInt, fault
from .errors import DataError, NumericError
from .frame import Frame
from .gbt import BoostedEnsemble, GbtConfig, extract_margins, fit_gbt

FeatureMode = Literal["margins", "leaf_onehot", "margins_plus_raw"]


@dataclass(frozen=True)
class MlpConfig(Bounded):
    hidden: tuple[PosInt, ...] = (128, 64)  # a tuple; config.model_config reads JSON's list as one
    epochs: NonNegInt = 50
    batch_size: PosInt = 256
    learning_rate: NonNegFloat = 1e-3
    seed: NonNegInt = 0


@dataclass(frozen=True)
class XgdnnConfig(Bounded):
    gbt: GbtConfig = field(default_factory=GbtConfig)
    mlp: MlpConfig = field(default_factory=MlpConfig)
    feature_mode: FeatureMode = "margins"


@dataclass(frozen=True)
class Mlp(Classifier):
    layer_sizes: tuple[int, ...]
    weights: tuple[np.ndarray, ...]
    biases: tuple[np.ndarray, ...]
    final_loss: float | None = None
    feature_names: tuple[str, ...] = ()

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
        return _forward(self.weights, self.biases, self._coerce(X))[-1]


def _forward(weights, biases, X, out=None):
    """Activations per layer, X first; the last entry is the softmax output,
    a new array. Each hidden layer's activations and the last layer's scores
    are written into the matching array of ``out`` when given (one per
    layer, len(X) rows)."""
    acts = [X, *(out or [np.empty((len(X), W.shape[1])) for W in weights])]
    for k, (W, b) in enumerate(zip(weights, biases)):
        z = np.matmul(acts[k], W, out=acts[k + 1])
        z += b
        if k < len(weights) - 1:
            np.maximum(z, 0.0, out=z)
    acts[-1] = softmax(acts[-1])
    return acts


def _views(sizes, flat):
    """Every weight matrix, then every bias vector, of a network with layer
    ``sizes``, as views of one flat vector."""
    shapes = [*zip(sizes, sizes[1:]), *((s,) for s in sizes[1:])]
    ends = np.cumsum([math.prod(s) for s in shapes])
    views = [flat[end - math.prod(s) : end].reshape(s) for s, end in zip(shapes, ends)]
    return views[: len(sizes) - 1], views[len(sizes) - 1 :]


class _Workspace:
    """Scratch arrays for :func:`mlp_gradients` on up to ``rows`` rows: each
    hidden layer's activations, the last layer's scores, and the flat
    gradient vector that ``gW`` and ``gb`` view."""

    def __init__(self, sizes, rows):
        self.acts = [np.empty((rows, s)) for s in sizes[1:]]
        self.grad = np.empty(sum((a + 1) * b for a, b in zip(sizes, sizes[1:])))
        self.gW, self.gb = _views(sizes, self.grad)


def mlp_gradients(weights, biases, X, labels, work: _Workspace | None = None):
    """Mean cross-entropy loss of each row's integer label and its gradients
    for every parameter. The gradients are views of ``work.grad``; ``work``
    defaults to a new workspace for len(X) rows.
    """
    n = len(X)
    work = work or _Workspace((len(weights[0]), *(len(b) for b in biases)), n)
    acts = _forward(weights, biases, X, [a[:n] for a in work.acts])
    delta = acts[-1]
    loss = cross_entropy(delta, labels)
    delta[np.arange(n), labels] -= 1.0  # P - Y, in place
    delta /= n
    for k in range(len(weights) - 1, -1, -1):
        np.matmul(acts[k].T, delta, out=work.gW[k])
        np.sum(delta, axis=0, out=work.gb[k])
        if k > 0:
            delta = (delta @ weights[k].T) * (acts[k] > 0)
    return loss, work.gW, work.gb


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
    X, y, n_classes = train.matrix, train.labels, train.target.n_classes
    n, d = X.shape

    sizes = (d, *cfg.hidden, n_classes)
    rng = np.random.default_rng(cfg.seed)  # initial weights, then the batch order
    init = init_mlp(sizes, rng)

    # every parameter is a view into one flat vector, so one Adam update per
    # step covers them all
    flat = np.concatenate([p.ravel() for p in init.weights + init.biases])
    weights, biases = _views(sizes, flat)

    rows = min(n, cfg.batch_size)
    work, batch_X = _Workspace(sizes, rows), np.empty((rows, d))
    m_state, v_state = np.zeros_like(flat), np.zeros_like(flat)
    step, denom = np.empty_like(flat), np.empty_like(flat)
    grad = work.grad
    beta1, beta2, eps = 0.9, 0.999, 1e-8
    t = 0
    for epoch in range(cfg.epochs):
        order = rng.permutation(n)
        for start in range(0, n, cfg.batch_size):
            batch = order[start : start + cfg.batch_size]
            Xb = np.take(X, batch, axis=0, out=batch_X[: len(batch)])
            loss, _, _ = mlp_gradients(weights, biases, Xb, y[batch], work)
            if not np.isfinite(loss):
                raise NumericError(
                    f"non-finite loss at epoch {epoch}, batch {start // cfg.batch_size}"
                )
            t += 1
            # flat -= lr * m_hat / (sqrt(v_hat) + eps), in place, in the
            # formula's own operation order
            m_state *= beta1
            m_state += np.multiply(grad, 1 - beta1, out=step)
            v_state *= beta2
            np.multiply(grad, 1 - beta2, out=step)
            step *= grad
            v_state += step
            np.divide(m_state, 1 - beta1**t, out=step)
            np.divide(v_state, 1 - beta2**t, out=denom)
            np.sqrt(denom, out=denom)
            denom += eps
            step *= cfg.learning_rate
            step /= denom
            flat -= step

    final_loss = cross_entropy(_forward(weights, biases, X)[-1], y)
    return Mlp(sizes, tuple(weights), tuple(biases), float(final_loss), train.column_names)


# ------------------------------------------------------------ hybrid model


@dataclass(frozen=True)
class HybridXgDnn(Bounded, Classifier):
    booster: BoostedEnsemble
    feature_mode: FeatureMode
    head: Mlp

    @property
    def n_classes(self) -> int:
        return self.head.n_classes

    @property
    def feature_names(self) -> tuple[str, ...]:
        return self.booster.feature_names

    def predict_proba(self, X) -> np.ndarray:
        return self.head.predict_proba(derive_features(self.booster, X, self.feature_mode))


def derive_features(booster: BoostedEnsemble, f, feature_mode: FeatureMode) -> np.ndarray:
    """Per-row head inputs from a frozen booster.

    margins: C pre-softmax scores. leaf_onehot: one indicator per leaf of
    every tree, tree by tree, each tree's leaves in depth-first order (each
    row sums to the tree count); the ranks come from the booster's stacked
    leaf mask. margins_plus_raw: margins next to the raw features.
    """
    X = booster._coerce(f)
    if feature_mode == "margins":
        return extract_margins(booster, X)
    if feature_mode == "margins_plus_raw":
        return np.hstack([extract_margins(booster, X), X])
    if feature_mode == "leaf_onehot":
        stack = booster.stack
        out = np.zeros((len(X), int(stack.leaf.sum())))
        np.put_along_axis(out, stack.leaf_ranks[stack.route(X)], 1.0, axis=1)
        return out
    raise DataError(f"feature_mode: {fault(FeatureMode, feature_mode)}")


def fit_hybrid(
    train: Frame, cfg: XgdnnConfig | None = None, booster: BoostedEnsemble | None = None
) -> HybridXgDnn:
    """Stage 1 boosts on raw features; stage 2 fits the network head on the
    derived features. The booster is frozen before stage 2 begins. A given
    `booster`, already fitted on `train` with ``cfg.gbt``, replaces stage 1.
    The head scores only derived arrays, by width; it carries the input
    names, as the archive restores it."""
    cfg = cfg or XgdnnConfig()
    if booster is None:
        booster = fit_gbt(train, cfg.gbt)
    Z = derive_features(booster, train, cfg.feature_mode)
    head_train = Frame(tuple(f"z{i}" for i in range(Z.shape[1])), Z, train.target)
    head = replace(fit_mlp(head_train, cfg.mlp), feature_names=train.column_names)
    return HybridXgDnn(booster, cfg.feature_mode, head)
