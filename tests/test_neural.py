import hashlib

import numpy as np
import pytest

from credo import blas
from credo.errors import DataError
from credo.frame import numeric_frame
from credo.gbt import GbtConfig, fit_gbt
from credo.neural import (
    HybridXgDnn,
    Mlp,
    MlpConfig,
    XgdnnConfig,
    derive_features,
    fit_hybrid,
    fit_mlp,
    init_mlp,
    mlp_gradients,
)


def _frame(X, y, class_names=None):
    return numeric_frame(np.asarray(X, dtype=float), labels=np.asarray(y), class_names=class_names)


# ------------------------------------------------------------------- mlp


def test_zero_weights_give_uniform_output():
    sizes = (3, 5, 4)
    m = Mlp(sizes, (np.zeros((3, 5)), np.zeros((5, 4))), (np.zeros(5), np.zeros(4)))
    X = np.random.default_rng(0).normal(size=(7, 3))
    assert m.predict_proba(X) == pytest.approx(np.full((7, 4), 0.25), abs=1e-15)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_backprop_matches_finite_differences(seed):
    rng = np.random.default_rng(seed)
    sizes = (3, 4, 3, 2)
    m = init_mlp(sizes, seed=seed)
    # random parameter point, not just the initialization
    weights = tuple(W + rng.normal(scale=0.3, size=W.shape) for W in m.weights)
    biases = tuple(b + rng.normal(scale=0.3, size=b.shape) for b in m.biases)
    X = rng.normal(size=(6, 3))
    labels = rng.integers(0, 2, 6)
    _, gW, gb = mlp_gradients(weights, biases, X, labels)

    step = 1e-5

    def fd(arrs, k, i):
        plus = [a.copy() for a in arrs]
        minus = [a.copy() for a in arrs]
        plus[k].flat[i] += step
        minus[k].flat[i] -= step
        if arrs is weights_l:
            lp, _, _ = mlp_gradients(tuple(plus), biases, X, labels)
            lm, _, _ = mlp_gradients(tuple(minus), biases, X, labels)
        else:
            lp, _, _ = mlp_gradients(weights, tuple(plus), X, labels)
            lm, _, _ = mlp_gradients(weights, tuple(minus), X, labels)
        return (lp - lm) / (2 * step)

    weights_l = list(weights)
    biases_l = list(biases)
    worst = 0.0
    for k, g in enumerate(gW):
        num = np.array([fd(weights_l, k, i) for i in range(g.size)]).reshape(g.shape)
        scale = max(np.abs(num).max(), 1e-12)
        worst = max(worst, np.abs(g - num).max() / scale)
    for k, g in enumerate(gb):
        num = np.array([fd(biases_l, k, i) for i in range(g.size)]).reshape(g.shape)
        scale = max(np.abs(num).max(), 1e-12)
        worst = max(worst, np.abs(g - num).max() / scale)
    assert worst <= 1e-4


def test_logical_and_learned():
    X = np.array([[0.0, 0.0], [0.0, 1.0], [1.0, 0.0], [1.0, 1.0]])
    y = np.array([0, 0, 0, 1])
    cfg = MlpConfig(hidden=(8,), epochs=500, batch_size=4, learning_rate=0.01, seed=0)
    m = fit_mlp(_frame(X, y), cfg)
    assert (m.predict(X) == y).mean() == 1.0
    assert m.final_loss is not None and m.final_loss < 0.1


def test_forward_pass_hand_computed():
    W1 = np.array([[1.0, -1.0], [0.5, 2.0]])
    b1 = np.array([0.1, -0.2])
    W2 = np.array([[1.0, 0.0], [-1.0, 1.0]])
    b2 = np.array([0.0, 0.3])
    m = Mlp((2, 2, 2), (W1, W2), (b1, b2))
    X = np.array([[1.0, 2.0], [1.0, -1.0]])
    # row 0: hidden [2.1, 2.8], logits [-0.7, 3.1]
    # row 1: hidden [0.6, 0] after the relu clamp, logits [0.6, 0.3]
    z = np.array([[-0.7, 3.1], [0.6, 0.3]])
    e = np.exp(z)
    want = e / e.sum(axis=1, keepdims=True)
    assert m.predict_proba(X) == pytest.approx(want, abs=1e-12)


def test_predict_contract_and_determinism():
    rng = np.random.default_rng(3)
    X = rng.normal(size=(30, 4))
    y = rng.integers(0, 3, 30)
    y[:3] = [0, 1, 2]
    m = fit_mlp(_frame(X, y), MlpConfig(hidden=(8,), epochs=5, batch_size=8, seed=1))
    Q = rng.normal(size=(12, 4))
    proba = m.predict_proba(Q)
    assert proba.sum(axis=1) == pytest.approx(np.ones(12), abs=1e-9)
    assert np.array_equal(proba, m.predict_proba(Q))
    with pytest.raises(DataError, match="expects 4 features"):
        m.predict_proba(np.zeros((2, 7)))


def test_same_seed_same_network():
    rng = np.random.default_rng(4)
    X = rng.normal(size=(40, 3))
    y = rng.integers(0, 2, 40)
    y[:2] = [0, 1]
    cfg = MlpConfig(hidden=(6,), epochs=8, batch_size=16, seed=9)
    a = fit_mlp(_frame(X, y), cfg)
    b = fit_mlp(_frame(X, y), cfg)
    for Wa, Wb in zip(a.weights, b.weights):
        assert np.array_equal(Wa, Wb)


def test_adam_zero_learning_rate_freezes_parameters():
    rng = np.random.default_rng(5)
    X = rng.normal(size=(20, 3))
    y = rng.integers(0, 2, 20)
    y[:2] = [0, 1]
    cfg = MlpConfig(hidden=(4,), epochs=3, batch_size=8, learning_rate=0.0, seed=2)
    trained = fit_mlp(_frame(X, y), cfg)
    virgin = init_mlp((3, 4, 2), seed=2)
    for Wt, Wv in zip(trained.weights, virgin.weights):
        assert np.array_equal(Wt, Wv)
    for bt, bv in zip(trained.biases, virgin.biases):
        assert np.array_equal(bt, bv)


def _digest(arrays) -> str:
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(a, dtype="<f8").tobytes())
    return h.hexdigest()


def _curved_table():
    rng = np.random.default_rng(11)
    X = rng.normal(size=(203, 6))
    y = (X[:, 0] + X[:, 1] ** 2 > 0.5).astype(int) + (X[:, 2] > 1)
    return X, y


# Recorded with the Adam update run one parameter array at a time and the
# final loss read from a full gradient pass; batch size 202 leaves a 1-row
# final batch.
MLP_GOLDENS = [
    (
        MlpConfig(hidden=(16, 8), epochs=5, batch_size=25, learning_rate=3e-3, seed=4),
        "58d47d27b8648dfafc61a777331b0144a5460a5af620e78b93369813f81c35c0",
    ),
    (
        MlpConfig(hidden=(7,), epochs=3, batch_size=202, learning_rate=1e-2, seed=1),
        "afe19494f806b87b8a199cf7dfa34e8701ed9f768dd6f7c226648aa961a7f8d8",
    ),
    # no hidden layer, and no training step (the initial weights), both
    # recorded before the training step ran in preallocated buffers
    (
        MlpConfig(hidden=(), epochs=6, batch_size=32, learning_rate=5e-2, seed=2),
        "8d30f5819bb1cbe56d73186a540125f5cfd13b945c979d444426c058f24d7e65",
    ),
    (
        MlpConfig(hidden=(5, 4), epochs=0, batch_size=16, seed=3),
        "785a9350d671f1746305224efcbf815314eb327473b9be07f69f09957da3bdd7",
    ),
]


def _fit_mlp_digest(cfg) -> str:
    X, y = _curved_table()
    m = fit_mlp(_frame(X, y), cfg)
    return _digest([*m.weights, *m.biases, [m.final_loss]])


@pytest.mark.parametrize("cfg, digest", MLP_GOLDENS)
def test_fit_mlp_bytes_are_golden(cfg, digest):
    assert _fit_mlp_digest(cfg) == digest


@pytest.mark.parametrize("cfg", [cfg for cfg, _ in MLP_GOLDENS])
def test_fit_mlp_bytes_do_not_depend_on_blas_threads(cfg, two_blas_threads):
    at_two = _fit_mlp_digest(cfg)
    with blas.one_thread():
        assert _fit_mlp_digest(cfg) == at_two


def test_predictions_do_not_depend_on_blas_threads(two_blas_threads):
    # products as large as the hybrid head's on a 5,000-row test split, which
    # OpenBLAS does split across threads
    m = init_mlp((39, 32, 10), seed=0)
    X = np.random.default_rng(0).normal(size=(5000, 39))
    at_two = m.predict_proba(X)
    with blas.one_thread():
        assert m.predict_proba(X).tobytes() == at_two.tobytes()


def test_final_loss_is_the_loss_at_the_returned_weights():
    X, y = _curved_table()
    m = fit_mlp(_frame(X, y), MlpConfig(hidden=(9, 5), epochs=4, batch_size=40, seed=3))
    loss, _, _ = mlp_gradients(m.weights, m.biases, X, y)
    assert m.final_loss == float(loss)


# ---------------------------------------------------------------- hybrid


@pytest.mark.parametrize("mode", ["margins", "leaf_onehot", "margins_plus_raw"])
def test_hybrid_given_booster_skips_stage_one(mode, monkeypatch):
    X, y = _curved_table()
    train = _frame(X, y)
    gcfg, mcfg = GbtConfig(rounds=3, max_depth=2), MlpConfig(hidden=(8,), epochs=3, seed=2)
    own = fit_hybrid(train, XgdnnConfig(gcfg, mcfg, mode))
    booster = fit_gbt(train, gcfg)

    def no_fit(*args, **kwargs):
        raise AssertionError("fit_gbt called although a booster was given")

    monkeypatch.setattr("credo.neural.fit_gbt", no_fit)
    given = fit_hybrid(train, XgdnnConfig(gcfg, mcfg, mode), booster=booster)
    assert given.booster is booster
    assert np.array_equal(given.predict_proba(X), own.predict_proba(X))


def test_margins_mode_head_width_is_n_classes():
    rng = np.random.default_rng(6)
    X = rng.normal(size=(200, 4))
    y = rng.integers(0, 10, 200)
    y[:10] = np.arange(10)
    h = fit_hybrid(
        _frame(X, y),
        XgdnnConfig(
            GbtConfig(rounds=2, max_depth=2), MlpConfig(hidden=(8,), epochs=2, batch_size=64), "margins"
        ),
    )
    assert h.head.layer_sizes[0] == 10


def test_leaf_onehot_rows_sum_to_tree_count():
    rng = np.random.default_rng(7)
    X = rng.normal(size=(60, 3))
    y = rng.integers(0, 3, 60)
    y[:3] = [0, 1, 2]
    booster = fit_gbt(_frame(X, y), GbtConfig(rounds=4, max_depth=2, min_child_weight=0.1))
    Z = derive_features(booster, X, "leaf_onehot")
    assert np.array_equal(Z.sum(axis=1), np.full(60, len(booster.trees)))
    assert set(np.unique(Z)) <= {0.0, 1.0}


def test_margins_plus_raw_width():
    rng = np.random.default_rng(8)
    X = rng.normal(size=(40, 5))
    y = rng.integers(0, 2, 40)
    y[:2] = [0, 1]
    booster = fit_gbt(_frame(X, y), GbtConfig(rounds=2, max_depth=2))
    Z = derive_features(booster, X, "margins_plus_raw")
    assert Z.shape == (40, 2 + 5)


def test_single_class_hybrid_collapses():
    X = np.arange(16, dtype=float).reshape(8, 2)
    f = _frame(X, np.zeros(8, dtype=int), class_names=("a", "b"))
    h = fit_hybrid(
        f,
        XgdnnConfig(
            GbtConfig(rounds=2, max_depth=2),
            MlpConfig(hidden=(4,), epochs=50, batch_size=8, learning_rate=0.01),
        ),
    )
    assert (h.predict(X) == 0).all()


def test_hybrid_composition_and_row_order():
    rng = np.random.default_rng(9)
    X = rng.normal(size=(80, 4))
    y = rng.integers(0, 3, 80)
    y[:3] = [0, 1, 2]
    h = fit_hybrid(
        _frame(X, y),
        XgdnnConfig(
            GbtConfig(rounds=3, max_depth=2),
            MlpConfig(hidden=(8,), epochs=4, batch_size=32),
            "margins_plus_raw",
        ),
    )
    Q = rng.normal(size=(15, 4))
    # composition equals the manual two-step application
    manual = h.head.predict_proba(derive_features(h.booster, Q, h.feature_mode))
    assert np.array_equal(h.predict_proba(Q), manual)
    # pure map over rows: permuting input permutes output identically
    perm = rng.permutation(15)
    assert np.array_equal(h.predict_proba(Q[perm]), h.predict_proba(Q)[perm])
    assert np.array_equal(h.predict_proba(Q), h.predict_proba(Q))


def test_hybrid_competitive_on_blobs():
    rng = np.random.default_rng(42)
    means = rng.normal(scale=2.5, size=(5, 8))

    def blobs(n_per):
        M = np.vstack([rng.normal(means[c], 1.8, size=(n_per, 8)) for c in range(5)])
        return _frame(M, np.repeat(np.arange(5), n_per))

    train, test = blobs(1000), blobs(400)
    Xte, yte = test.matrix, test.labels
    disagreements = []
    for s in range(3):
        gcfg = GbtConfig(rounds=10, max_depth=3)
        mcfg = MlpConfig(hidden=(32,), epochs=20, batch_size=128, learning_rate=3e-3, seed=s)
        booster = fit_gbt(train, gcfg)
        boost_pred = booster.predict_proba(Xte).argmax(axis=1)
        boost_acc = (boost_pred == yte).mean()
        mlp_acc = (fit_mlp(train, mcfg).predict(Xte) == yte).mean()
        hybrid = fit_hybrid(train, XgdnnConfig(gcfg, mcfg, "margins"))
        hybrid_pred = hybrid.predict_proba(Xte).argmax(axis=1)
        hybrid_acc = (hybrid_pred == yte).mean()
        assert hybrid_acc >= max(boost_acc, mlp_acc) - 0.02
        disagreements.append((hybrid_pred != boost_pred).mean())
    # diagnostic only: how often the head overrides the booster
    print(f"hybrid/booster disagreement rates: {disagreements}")


def test_head_input_width_validated():
    rng = np.random.default_rng(10)
    X = rng.normal(size=(30, 3))
    y = rng.integers(0, 2, 30)
    y[:2] = [0, 1]
    booster = fit_gbt(_frame(X, y), GbtConfig(rounds=2, max_depth=2))
    head = init_mlp((2, 4, 2), seed=0)  # margins mode: width 2 matches
    h = HybridXgDnn(booster, "margins", head)
    assert h.predict_proba(X).shape == (30, 2)
    with pytest.raises(DataError, match="feature_mode"):
        HybridXgDnn(booster, "nope", head)


def test_config_validation():
    with pytest.raises(DataError):
        MlpConfig(hidden=(0,))
    with pytest.raises(DataError):
        MlpConfig(batch_size=0)
    with pytest.raises(DataError):
        MlpConfig(learning_rate=-0.1)
