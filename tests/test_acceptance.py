"""Acceptance gate: eleven criteria, one test (and one pass/fail line) each.

Each criterion pins its own tolerance and runtime budget.  Reported headline
accuracy figures are deliberately not asserted anywhere: they came from a
2.5M-row private dataset and unreported hyperparameters, so this suite
checks metric identities, closed-form oracles, and scale-model properties
instead (criterion 11 offers an optional replay mode; see README).
"""

import json
import os
import time

import numpy as np
import pytest
import scipy.linalg

from credo.cli import main
from credo.errors import LdaClampWarning
from credo.explain import (
    LimeConfig,
    MorrisConfig,
    build_trajectories,
    lime_explain,
    morris_screen,
)
from credo.frame import apply_scaler, fit_scaler, numeric_frame, split
from credo.gbt import GbtConfig, extract_margins, fit_gbt
from credo.lda import LdaConfig, fit_lda, scatter_matrices, transform_lda
from credo.metrics import basic_metrics, binary_h_measure, h_measure
from credo.neural import MlpConfig, XgdnnConfig, fit_hybrid, fit_mlp, init_mlp, mlp_gradients
from credo.resample import SmoteConfig, smote
from credo.synth import SynthSpec, write_synthetic


class Timer:
    def __enter__(self):
        self.t0 = time.perf_counter()
        return self

    def __exit__(self, *exc):
        self.seconds = time.perf_counter() - self.t0


class FnModel:
    """Binary black box for the explainers: p(x) -> [[1-p, p]]."""

    def __init__(self, fn, n_features):
        self.fn = fn
        self.n_features = n_features
        self.n_classes = 2

    def predict_proba(self, X):
        p = np.asarray(self.fn(np.asarray(X, dtype=float)), dtype=float)
        return np.column_stack([1.0 - p, p])

    def predict(self, X):
        return np.argmax(self.predict_proba(X), axis=1)


def announce(num, detail):
    print(f"criterion {num:02d}: PASS - {detail}")


# criterion 1 ---------------------------------------------------------------


def test_criterion_01_g_mean_matches_reported_pairs():
    """sqrt(sensitivity x specificity) reproduces both reported G-means
    within 0.05 percentage points."""
    with Timer() as t:
        # boosted-tree row: sens 99.10, spec 99.79 -> reported G-mean 99.45
        cm_a = np.array([[9979, 21], [90, 9910]])
        g_a = basic_metrics(cm_a).g_mean
        # random-forest row: sens 98.96, spec 98.89 -> reported G-mean 98.93
        cm_b = np.array([[9889, 111], [104, 9896]])
        g_b = basic_metrics(cm_b).g_mean
    assert abs(g_a - 0.9945) <= 5e-4
    assert abs(g_b - 0.9893) <= 5e-4
    assert abs(np.sqrt(0.9910 * 0.9979) - 0.9945) <= 5e-4
    assert abs(np.sqrt(0.9896 * 0.9889) - 0.9893) <= 5e-4
    assert t.seconds < 1.0
    announce(1, f"G-mean pairs {100 * g_a:.3f} / {100 * g_b:.3f} within 0.05pp, {t.seconds:.2f}s")


# criterion 2 ---------------------------------------------------------------


def _lda_oracle(X, y, n_classes, m, ridge):
    """Dense generalized eigensolve of the same pencil, via scipy."""
    S_w, S_b, *_ = scatter_matrices(X, y, n_classes)
    A = S_w + ridge * np.eye(X.shape[1])
    evals, vecs = scipy.linalg.eigh(S_b, 0.5 * (A + A.T))
    order = np.argsort(evals)[::-1][:m]
    return evals[order], vecs[:, order]


def test_criterion_02_lda_matches_generalized_eig_oracle():
    """Components match a dense generalized-eigendecomposition oracle up to
    sign at rtol 1e-8 on 5 tiny datasets; 21 requested components with 10
    classes clamp to exactly 9 with a warning."""
    with Timer() as t:
        for seed in range(5):
            rng = np.random.default_rng(40 + seed)
            n_classes = int(rng.integers(2, 4))
            d = int(rng.integers(2, 5))
            n = int(rng.integers(4 * n_classes, 21))
            labels = np.concatenate([np.arange(n_classes)] * 2)  # 2 rows per class
            labels = np.concatenate([labels, rng.integers(0, n_classes, n - len(labels))])
            X = rng.normal(size=(n, d)) + 1.5 * labels[:, None]
            m = min(n_classes - 1, d)
            ridge = 1e-3

            frame = numeric_frame(X, labels=labels, class_names=tuple(f"c{i}" for i in range(n_classes)))
            mine = fit_lda(frame, LdaConfig(n_components=m, ridge=ridge))
            evals, vecs = _lda_oracle(X, labels, n_classes, m, ridge)

            assert np.allclose(mine.eigenvalues, np.maximum(evals, 0.0), rtol=1e-8, atol=1e-10)
            for k in range(m):
                u, v = vecs[:, k], mine.components[:, k]
                gap = min(np.linalg.norm(v - u), np.linalg.norm(v + u))
                assert gap <= 1e-8 * max(np.linalg.norm(u), 1.0)

        rng = np.random.default_rng(99)
        labels = np.repeat(np.arange(10), 6)
        X = rng.normal(size=(60, 21)) + labels[:, None] * 0.8
        frame = numeric_frame(X, labels=labels, class_names=tuple(f"c{i}" for i in range(10)))
        with pytest.warns(LdaClampWarning):
            clamped = fit_lda(frame, LdaConfig(n_components=21, ridge=1e-3))
        assert clamped.components.shape == (21, 9)
        assert clamped.n_components == 9
    assert t.seconds < 5.0
    announce(2, f"5 oracle datasets at 1e-8 and 21->9 clamp, {t.seconds:.2f}s")


# criterion 3 ---------------------------------------------------------------


def _stump_oracle(x, g, h, lam):
    """Exhaustive depth-1 search with closed-form Newton leaf weights."""
    order = np.argsort(x, kind="stable")
    xs, gs, hs = x[order], g[order], h[order]
    G, H = gs.sum(), hs.sum()
    parent = G * G / (H + lam)
    best = None
    for k in np.nonzero(xs[:-1] != xs[1:])[0]:
        GL, HL = gs[: k + 1].sum(), hs[: k + 1].sum()
        GR, HR = G - GL, H - HL
        score = GL * GL / (HL + lam) + GR * GR / (HR + lam)
        gain = 0.5 * (score - parent)
        if best is None or gain > best[0] + 1e-15:
            best = (gain, 0.5 * (xs[k] + xs[k + 1]), -GL / (HL + lam), -GR / (HR + lam))
    if best is None or best[0] <= 0:
        return None  # no split: single leaf at -G/(H+lam)
    return best


def test_criterion_03_gbt_matches_stump_oracle_and_loss_monotone():
    """Depth-1 single-round fits equal the exhaustive-search oracle to 1e-12;
    XOR training loss is nonincreasing across 100 rounds at gamma=0."""
    with Timer() as t:
        cfg = GbtConfig(rounds=1, max_depth=1, learning_rate=1.0, lam=1.0,
                        gamma=0.0, min_child_weight=0.0)
        for seed in range(3):
            rng = np.random.default_rng(300 + seed)
            n, n_classes = 14, 2 + seed % 2
            x = np.round(rng.normal(size=n), 1)  # duplicates on purpose
            labels = (x + rng.normal(scale=0.3, size=n) > 0).astype(int)
            if n_classes == 3:
                labels[x > 0.8] = 2
            labels[:n_classes] = np.arange(n_classes)  # every class present
            frame = numeric_frame(x[:, None], ["x"], labels=labels,
                                  class_names=tuple(f"c{i}" for i in range(n_classes)))
            model = fit_gbt(frame, cfg)

            priors = np.bincount(labels, minlength=n_classes) / n
            for c in range(n_classes):
                p = priors[c]
                g = np.full(n, p) - (labels == c)
                h = np.full(n, p * (1.0 - p))
                oracle = _stump_oracle(x, g, h, cfg.lam)
                tree = model.trees[c]
                if oracle is None:
                    assert tree.feature[0] == -1
                    assert abs(tree.weight[0] - (-g.sum() / (h.sum() + cfg.lam))) <= 1e-12
                else:
                    _, threshold, w_left, w_right = oracle
                    assert tree.feature[0] == 0
                    assert abs(tree.threshold[0] - threshold) <= 1e-12
                    assert abs(tree.weight[tree.left[0]] - w_left) <= 1e-12
                    assert abs(tree.weight[tree.right[0]] - w_right) <= 1e-12

        # XOR clusters; unequal masses keep the first marginal split informative
        rng = np.random.default_rng(333)
        corners = np.array([[0, 0], [0, 1], [1, 0], [1, 1]], dtype=float)
        sizes = [30, 20, 30, 20]
        X = np.vstack([rng.normal(c, 0.08, size=(s, 2)) for c, s in zip(corners, sizes)])
        y = np.repeat([0, 1, 1, 0], sizes)
        xor = numeric_frame(X, ["a", "b"], labels=y, class_names=("c0", "c1"))
        booster = fit_gbt(xor, GbtConfig(rounds=100, max_depth=2, learning_rate=0.3, gamma=0.0))
        losses = []
        for r in range(101):
            margins = extract_margins(booster, X, n_rounds=r)
            shifted = margins - margins.max(axis=1, keepdims=True)
            logp = shifted - np.log(np.exp(shifted).sum(axis=1, keepdims=True))
            losses.append(-logp[np.arange(len(y)), y].mean())
        assert np.all(np.diff(losses) <= 1e-12)
        assert losses[-1] < 0.1 < losses[0]  # XOR is actually learned
    assert t.seconds < 10.0
    announce(3, f"stump oracle 1e-12, XOR loss monotone over 100 rounds, {t.seconds:.2f}s")


# criterion 4 ---------------------------------------------------------------


def test_criterion_04_mlp_gradient_check():
    """Backprop gradients match central finite differences: max relative
    error <= 1e-4 over every parameter at 3 random points."""
    with Timer() as t:
        worst = 0.0
        for seed in range(3):
            rng = np.random.default_rng(400 + seed)
            net = init_mlp((3, 5, 4, 2), seed=seed)
            weights = [w + rng.normal(scale=0.3, size=w.shape) for w in net.weights]
            biases = [b + rng.normal(scale=0.3, size=b.shape) for b in net.biases]
            X = rng.normal(size=(12, 3))
            labels = rng.integers(0, 2, 12)

            _, gW, gb = mlp_gradients(weights, biases, X, labels)
            eps = 1e-5
            for params, grads in ((weights, gW), (biases, gb)):
                for arr, grad in zip(params, grads):
                    it = np.nditer(arr, flags=["multi_index"])
                    for _ in it:
                        idx = it.multi_index
                        keep = arr[idx]
                        arr[idx] = keep + eps
                        lp, _, _ = mlp_gradients(weights, biases, X, labels)
                        arr[idx] = keep - eps
                        lm, _, _ = mlp_gradients(weights, biases, X, labels)
                        arr[idx] = keep
                        fd = (lp - lm) / (2 * eps)
                        rel = abs(grad[idx] - fd) / max(abs(fd), abs(grad[idx]), 1e-8)
                        worst = max(worst, rel)
        assert worst <= 1e-4
    assert t.seconds < 10.0
    announce(4, f"max relative gradient error {worst:.2e} <= 1e-4, {t.seconds:.2f}s")


# criterion 5 ---------------------------------------------------------------


def _accuracy(model, test):
    return float(np.mean(model.predict(test.matrix) == test.labels))


def test_criterion_05_hybrid_ranks_with_components_and_shrugs_off_lda():
    """On a 5-class, 5000-row fixture over 3 seeds the two-stage model scores
    within 2pp of its best component, and the reduction moves its accuracy
    by at most 3pp."""
    with Timer() as t:
        for seed in range(3):
            rng = np.random.default_rng(500 + seed)
            means = rng.normal(scale=2.2, size=(5, 8))
            labels = np.repeat(np.arange(5), 1000)
            X = rng.normal(scale=1.6, size=(5000, 8)) + means[labels]
            frame = numeric_frame(X, labels=labels, class_names=tuple(f"c{i}" for i in range(5)))
            train, test = split(frame, 0.8, seed)
            params = fit_scaler(train, "zscore")
            train, test = apply_scaler(train, params), apply_scaler(test, params)

            gbt_cfg = GbtConfig(rounds=12, max_depth=3)
            mlp_cfg = MlpConfig(hidden=(32,), epochs=25, batch_size=128,
                                learning_rate=3e-3, seed=seed)
            acc_gbt = _accuracy(fit_gbt(train, gbt_cfg), test)
            acc_mlp = _accuracy(fit_mlp(train, mlp_cfg), test)
            hybrid = fit_hybrid(train, XgdnnConfig(gbt_cfg, mlp_cfg, "margins_plus_raw"))
            acc_hybrid = _accuracy(hybrid, test)
            assert acc_hybrid >= max(acc_gbt, acc_mlp) - 0.02, (
                f"seed {seed}: hybrid {acc_hybrid:.4f} vs "
                f"components {acc_gbt:.4f}/{acc_mlp:.4f}"
            )

            projection = fit_lda(train, LdaConfig(n_components=4))
            train_r, test_r = transform_lda(projection, train), transform_lda(projection, test)
            reduced_hybrid = fit_hybrid(train_r, XgdnnConfig(gbt_cfg, mlp_cfg, "margins_plus_raw"))
            acc_reduced = _accuracy(reduced_hybrid, test_r)
            assert abs(acc_reduced - acc_hybrid) <= 0.03, (
                f"seed {seed}: {acc_reduced:.4f} with reduction vs {acc_hybrid:.4f} without"
            )
    assert t.seconds < 180.0
    announce(5, f"3 seeds: hybrid >= max(parts)-2pp, |LDA shift| <= 3pp, {t.seconds:.1f}s")


# criterion 6 ---------------------------------------------------------------


def test_criterion_06_smote_geometry_and_flat_histogram():
    """Every synthetic row sits on a segment between same-class points
    (residual <= 1e-9) and the resampled histogram is exactly flat."""
    with Timer() as t:
        rng = np.random.default_rng(600)
        labels = np.array([0] * 18 + [1] * 7 + [2] * 5)
        X = rng.normal(size=(30, 3)) + labels[:, None] * 3.0
        frame = numeric_frame(X, labels=labels, class_names=("c0", "c1", "c2"))
        out = smote(frame, SmoteConfig(k_neighbors=3, seed=0))

        counts = np.bincount(out.labels, minlength=3)
        assert counts.tolist() == [18, 18, 18]
        assert np.array_equal(out.matrix[:30], X)  # originals first, untouched

        Z = out.matrix
        worst = 0.0
        for i in range(30, out.n_rows):
            s, c = Z[i], out.labels[i]
            originals = X[labels == c]
            best = np.inf
            for a in range(len(originals)):
                for b in range(len(originals)):
                    if a == b:
                        continue
                    p, q = originals[a], originals[b]
                    seg = q - p
                    tt = np.clip(seg @ (s - p) / (seg @ seg), 0.0, 1.0)
                    best = min(best, float(np.linalg.norm(s - (p + tt * seg))))
            worst = max(worst, best)
        assert worst <= 1e-9
    assert t.seconds < 5.0
    announce(6, f"max segment residual {worst:.1e}, histogram exactly flat, {t.seconds:.2f}s")


# criterion 7 ---------------------------------------------------------------


def test_criterion_07_lime_recovers_linear_black_box():
    """sigmoid(2*x1 - x2): correct signs, correct |weight| ranking, and
    R-squared >= 0.99 at 5000 samples; a constant box earns ~zero weights."""
    with Timer() as t:
        rng = np.random.default_rng(11)
        background = numeric_frame(rng.normal(0.0, 0.3, size=(300, 2)), ["x1", "x2"])
        row = np.array([0.05, -0.02])

        linear = FnModel(lambda X: 1.0 / (1.0 + np.exp(-(2.0 * X[:, 0] - X[:, 1]))), 2)
        exp = lime_explain(
            linear, background, row, target_class=1,
            cfg=LimeConfig(n_samples=5000, kernel_width=20.0, seed=0),
        )
        by_name = dict(zip(exp.feature_names, exp.weights))
        assert by_name["x1"] > 0 > by_name["x2"]
        assert abs(by_name["x1"]) > abs(by_name["x2"])
        assert exp.feature_names[0] == "x1"  # ranked by |weight|
        assert exp.r_squared >= 0.99

        flat = FnModel(lambda X: np.full(len(X), 0.7), 2)
        exp0 = lime_explain(flat, background, row, target_class=1,
                            cfg=LimeConfig(n_samples=5000, seed=0))
        assert np.abs(exp0.weights).max() <= 1e-6
    assert t.seconds < 30.0
    announce(7, f"signs/ranking ok, R^2={exp.r_squared:.4f} >= 0.99, flat box <= 1e-6, {t.seconds:.2f}s")


# criterion 8 ---------------------------------------------------------------


def test_criterion_08_morris_analytics():
    """Affine box: mu* = |coef|*range within 1e-10 and sigma <= 1e-10.
    Interaction box x1*x2: sigma > 0 for both. Every trajectory moves every
    coordinate exactly once."""
    with Timer() as t:
        affine = FnModel(lambda X: 0.5 + 0.2 * X[:, 0] - 0.1 * X[:, 1], 2)
        ranges = np.array([[0.0, 2.0], [-1.0, 3.0]])
        scr = morris_screen(affine, ranges, target_class=1,
                            cfg=MorrisConfig(n_trajectories=8, seed=0))
        assert np.allclose(scr.mu_star, [0.2 * 2.0, 0.1 * 4.0], atol=1e-10)
        assert np.all(scr.sigma <= 1e-10)

        product = FnModel(lambda X: X[:, 0] * X[:, 1], 2)
        unit = np.array([[0.0, 1.0], [0.0, 1.0]])
        scr2 = morris_screen(product, unit, target_class=1,
                             cfg=MorrisConfig(n_trajectories=12, seed=1))
        assert np.all(scr2.sigma > 0)

        levels = 4
        step = levels / (2.0 * (levels - 1))
        paths = build_trajectories(5, 10, levels, step, np.random.default_rng(2))
        deltas = np.diff(paths, axis=1)
        for traj in deltas:
            moved = np.nonzero(traj != 0.0)
            assert len(moved[0]) == 5  # one move per step
            assert sorted(moved[1].tolist()) == [0, 1, 2, 3, 4]  # each coordinate once
            assert np.allclose(traj[traj != 0.0], step)
    assert t.seconds < 10.0
    announce(8, f"affine exact at 1e-10, interaction sigma > 0, trajectories OAT, {t.seconds:.2f}s")


# criterion 9 ---------------------------------------------------------------


def _h_grid_oracle(scores, positive, n_grid=40001):
    """Cost-grid integration: sweep all operating points on a dense cost grid
    under the Beta(2,2) weight and integrate the lower envelope."""
    y = np.asarray(positive, dtype=np.int64)
    n1, n0 = int(y.sum()), int(len(y) - y.sum())
    pi0, pi1 = n0 / len(y), n1 / len(y)
    points = [(1.0, 1.0)]  # predict everything positive
    for thr in np.unique(scores):
        pred = scores >= thr
        points.append(((pred & (y == 0)).sum() / n0, (pred & (y == 1)).sum() / n1))
    points.append((0.0, 0.0))
    pts = np.asarray(points)
    c = np.linspace(0.0, 1.0, n_grid)
    loss = np.min(
        c[None, :] * (pi0 * pts[:, 0])[:, None]
        + (1.0 - c)[None, :] * (pi1 * (1.0 - pts[:, 1]))[:, None],
        axis=0,
    )
    w = 6.0 * c * (1.0 - c)
    numer = np.trapezoid(loss * w, c)
    denom = np.trapezoid(np.minimum(c * pi0, (1.0 - c) * pi1) * w, c)
    return 1.0 - numer / denom


def test_criterion_09_h_measure_identities_and_grid_oracle():
    """Perfect separation -> exactly 1.0; label-free scores at n=10000 ->
    <= 0.02; monotone-transform invariance to 1e-12; hull value matches the
    cost-grid oracle within 1e-6 on every fixture up to 200 rows."""
    with Timer() as t:
        y = np.array([0] * 50 + [1] * 50)
        proba = np.column_stack([np.where(y == 1, 0.1, 0.9), np.where(y == 1, 0.9, 0.1)])
        assert h_measure(y, proba) == 1.0

        rng = np.random.default_rng(900)
        s = rng.random(10_000)
        y_rand = rng.integers(0, 2, 10_000)
        random_h = h_measure(y_rand, np.column_stack([1.0 - s, s]))
        assert random_h <= 0.02

        scores = rng.random(300)
        y300 = rng.integers(0, 2, 300)
        base = binary_h_measure(scores, y300)
        squashed = binary_h_measure(1.0 / (1.0 + np.exp(-(3.0 * scores - 1.0))), y300)
        assert abs(base - squashed) <= 1e-12

        worst = 0.0
        fixtures = []
        for n, seed in ((8, 1), (37, 2), (60, 3), (200, 4)):
            r = np.random.default_rng(seed)
            sc = np.round(r.random(n), 2)  # ties included
            yy = r.integers(0, 2, n)
            yy[:2] = [0, 1]
            fixtures.append((sc, yy))
        sep = np.concatenate([np.linspace(0, 0.4, 30), np.linspace(0.6, 1.0, 30)])
        fixtures.append((sep, (sep > 0.5).astype(int)))
        for sc, yy in fixtures:
            gap = abs(binary_h_measure(sc, yy) - _h_grid_oracle(sc, yy))
            worst = max(worst, gap)
        assert worst <= 1e-6

        # macro variant against the same oracle, one-vs-rest per class
        y3 = rng.integers(0, 3, 150)
        y3[:3] = [0, 1, 2]
        raw = rng.random((150, 3))
        proba3 = raw / raw.sum(axis=1, keepdims=True)
        macro = h_measure(y3, proba3)
        oracle = np.mean([_h_grid_oracle(proba3[:, c], (y3 == c).astype(int)) for c in range(3)])
        assert abs(macro - oracle) <= 1e-6
    assert t.seconds < 30.0
    announce(9, f"perfect=1.0, random {random_h:.4f} <= 0.02, grid gap {worst:.1e}, {t.seconds:.1f}s")


# criterion 10 --------------------------------------------------------------


def test_criterion_10_cli_determinism_and_full_scale_runtime(tmp_path):
    """The run command is byte-deterministic, and the full 20k-row, 30-feature,
    10-class pipeline with SMOTE, the reduction, the hybrid model and both
    explainers finishes in under 2 minutes."""
    data = tmp_path / "synthetic.csv"
    write_synthetic(str(data), SynthSpec())  # 20000 x 31, 10 classes
    config = {
        "data": str(data),
        "target": "status",
        "scaler": "zscore",
        "smote": {"enabled": True},
        "lda": {"enabled": True},
        "model": {
            "name": "xgdnn",
            "params": {
                "gbt": {"rounds": 6, "max_depth": 2, "learning_rate": 0.4},
                "mlp": {"hidden": [32], "epochs": 8, "batch_size": 512,
                        "learning_rate": 3e-3},
            },
        },
        "metrics": ["accuracy", "sensitivity", "specificity", "g_mean", "h_measure", "f1"],
        "explain": {"lime_rows": [0], "morris": {"enabled": True}},
        "out_dir": str(tmp_path / "out_a"),
    }
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(config))

    with Timer() as t:
        assert main(["run", "-c", str(cfg_path)]) == 0
    assert t.seconds < 120.0

    assert main(["run", "-c", str(cfg_path), "--out", str(tmp_path / "out_b")]) == 0
    bytes_a = (tmp_path / "out_a" / "metrics.csv").read_bytes()
    bytes_b = (tmp_path / "out_b" / "metrics.csv").read_bytes()
    assert bytes_a == bytes_b
    report = json.loads((tmp_path / "out_a" / "report.json").read_text())
    assert report["preprocessing"]["smote"]["path"] == "after_split"
    assert report["preprocessing"]["lda"]["n_components_used"] == 9
    assert len(report["explanations"]["lime"]) == 1
    assert report["explanations"]["morris"] is not None
    announce(10, f"byte-identical metrics.csv, full pipeline {t.seconds:.1f}s < 120s")


# criterion 11 --------------------------------------------------------------

LENDING_ENV = "CREDO_LENDING_CLUB_CSV"


@pytest.mark.skipif(
    LENDING_ENV not in os.environ,
    reason=(
        "optional replay, not part of CI: point CREDO_LENDING_CLUB_CSV at a local "
        "loan CSV to run the full comparison protocol; reported figures carry no "
        "numeric tolerance because the original 2.5M-row data and exact "
        "hyperparameters are unavailable (see README)"
    ),
)
def test_criterion_11_optional_replay_renders_comparison(tmp_path):
    """With a user-supplied loan CSV, the compare command runs all eight
    models with and without the reduction and renders the matrix. No numeric
    tolerance is asserted: the reported numbers are not reproducible without
    the original data and hyperparameters."""
    config = {
        "data": os.environ[LENDING_ENV],
        "target": os.environ.get("CREDO_LENDING_CLUB_TARGET", "loan_status"),
        "models": [
            {"name": "logreg"},
            {"name": "gnb"},
            {"name": "tree"},
            {"name": "forest", "params": {"n_trees": 20}},
            {"name": "gbt", "params": {"rounds": 20, "max_depth": 3}},
            {"name": "mlp"},
            {"name": "lda"},
            {"name": "xgdnn", "params": {"gbt": {"rounds": 20, "max_depth": 3}}},
        ],
        "out_dir": str(tmp_path / "replay"),
    }
    cfg_path = tmp_path / "replay.json"
    cfg_path.write_text(json.dumps(config))
    assert main(["compare", "-c", str(cfg_path)]) == 0
    text = (tmp_path / "replay" / "compare.csv").read_text()
    lines = text.splitlines()
    assert lines[0].startswith("model,lda,")
    assert len(lines) == 1 + 16  # 8 models x reduction off/on
    announce(11, "comparison matrix rendered from user-supplied data")
