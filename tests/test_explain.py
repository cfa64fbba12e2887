import numpy as np
import pytest

from credo.errors import DataError
from credo.explain import (
    LimeConfig,
    LimeExplanation,
    MorrisConfig,
    MorrisScreening,
    build_trajectories,
    explanation_to_csv,
    lime_explain,
    morris_screen,
    rank_features,
)
from credo.frame import numeric_frame


class FnModel:
    """Wraps a scalar function as the probability of class 1."""

    def __init__(self, fn, d, n_classes=2):
        self.fn = fn
        self.n_features = d
        self.n_classes = n_classes

    def predict_proba(self, X):
        p = self.fn(np.asarray(X, dtype=float))
        return np.column_stack([1.0 - p, p])

    def predict(self, X):
        return np.argmax(self.predict_proba(X), axis=1)


def _sigmoid(X):
    return 1.0 / (1.0 + np.exp(-(2.0 * X[:, 0] - X[:, 1])))


@pytest.fixture
def background():
    rng = np.random.default_rng(11)
    return numeric_frame(rng.normal(0.0, 0.3, size=(300, 2)), names=["x1", "x2"])


# ------------------------------------------------------------------ lime


def test_constant_model_gives_zero_weights(background):
    m = FnModel(lambda X: np.full(len(X), 0.7), 2)
    e = lime_explain(m, background, [0.0, 0.0], 1, LimeConfig(seed=3))
    assert np.abs(e.weights).max() <= 1e-6
    assert e.intercept == pytest.approx(0.7, abs=1e-9)
    assert e.importances.sum() == pytest.approx(1.0)
    assert (e.importances >= 0).all()


def test_sigmoid_recovery(background):
    m = FnModel(_sigmoid, 2)
    e = lime_explain(m, background, [0.0, 0.0], 1, LimeConfig(kernel_width=20.0, seed=0))
    by_name = dict(zip(e.feature_names, e.weights))
    w1, w2 = by_name["x1"], by_name["x2"]
    assert w1 > 0 > w2
    assert abs(w1) > abs(w2)
    # slope per standardized unit recovers the 2:-1 coefficient ratio
    assert 1.6 <= abs(w1 / w2) <= 2.4
    assert e.r_squared >= 0.99
    assert e.feature_names == ("x1", "x2")  # ranked by |weight|
    assert e.importances.sum() == pytest.approx(1.0)


def test_weights_scale_with_the_black_box(background):
    base = FnModel(_sigmoid, 2)
    half = FnModel(lambda X: 0.5 * _sigmoid(X), 2)
    cfg = LimeConfig(kernel_width=20.0, seed=0)
    a = lime_explain(base, background, [0.0, 0.0], 1, cfg)
    b = lime_explain(half, background, [0.0, 0.0], 1, cfg)
    assert b.weights == pytest.approx(0.5 * a.weights, abs=1e-10)


def test_deterministic_per_seed(background):
    m = FnModel(_sigmoid, 2)
    a = lime_explain(m, background, [0.1, -0.2], 1, LimeConfig(seed=7))
    b = lime_explain(m, background, [0.1, -0.2], 1, LimeConfig(seed=7))
    c = lime_explain(m, background, [0.1, -0.2], 1, LimeConfig(seed=8))
    assert np.array_equal(a.weights, b.weights)
    assert not np.array_equal(a.weights, c.weights)


def test_top_k_selection(background):
    m = FnModel(_sigmoid, 2)
    e = lime_explain(m, background, [0.0, 0.0], 1, LimeConfig(kernel_width=20.0, n_features=1, seed=0))
    assert e.feature_names == ("x1",)
    assert e.importances == pytest.approx([1.0])


def test_zero_variance_background_rejected():
    bg = numeric_frame(np.ones((10, 2)), names=["a", "b"])
    m = FnModel(_sigmoid, 2)
    with pytest.raises(DataError, match="zero variance"):
        lime_explain(m, bg, [1.0, 1.0], 1)


def test_partially_constant_background_still_works():
    rng = np.random.default_rng(0)
    M = np.column_stack([rng.normal(size=50), np.full(50, 2.0)])
    bg = numeric_frame(M, names=["live", "frozen"])
    m = FnModel(lambda X: 1.0 / (1.0 + np.exp(-X[:, 0])), 2)
    e = lime_explain(m, bg, [0.0, 2.0], 1, LimeConfig(seed=1))
    by_name = dict(zip(e.feature_names, e.weights))
    assert abs(by_name["frozen"]) <= 1e-9
    assert by_name["live"] > 0


def test_row_dimension_checked(background):
    with pytest.raises(DataError, match="features"):
        lime_explain(FnModel(_sigmoid, 2), background, [0.0, 0.0, 0.0], 1)


def test_lime_config_validation():
    with pytest.raises(DataError):
        LimeConfig(n_samples=1)
    with pytest.raises(DataError):
        LimeConfig(kernel_width=0.0)
    with pytest.raises(DataError):
        LimeConfig(n_features=0)


# ---------------------------------------------------------------- morris


def test_trajectory_structure():
    rng = np.random.default_rng(5)
    step = 2.0 / 3.0
    paths = build_trajectories(5, 7, 4, step, rng)
    assert paths.shape == (7, 6, 5)
    assert paths.min() >= 0.0 and paths.max() <= 1.0
    for t in range(7):
        moves = np.diff(paths[t], axis=0)
        changed = moves != 0
        # exactly one coordinate moves per step, by +step
        assert (changed.sum(axis=1) == 1).all()
        assert moves[changed] == pytest.approx(np.full(5, step))
        # each coordinate moves exactly once per trajectory
        assert (changed.sum(axis=0) == 1).all()
        # base points sit on the grid with headroom for the step
        base = paths[t, 0]
        assert np.allclose(np.round(base * 3) / 3, base)
        assert (base <= 1.0 - step + 1e-12).all()


def test_constant_model_screens_to_zero():
    m = FnModel(lambda X: np.full(len(X), 0.4), 3)
    s = morris_screen(m, [[0, 1]] * 3, target_class=1)
    assert s.mu == pytest.approx(np.zeros(3), abs=1e-15)
    assert s.mu_star == pytest.approx(np.zeros(3), abs=1e-15)
    assert s.sigma == pytest.approx(np.zeros(3), abs=1e-15)


def test_linear_model_exact():
    m = FnModel(lambda X: 3.0 * X[:, 0] + 0.0 * X[:, 1], 2)
    s = morris_screen(m, [[0, 1], [0, 1]], target_class=1)
    assert abs(s.mu_star[0] - 3.0) <= 1e-10
    assert abs(s.mu_star[1]) <= 1e-10
    assert (s.sigma <= 1e-10).all()


def test_affine_model_range_scaled():
    m = FnModel(lambda X: 2.0 * X[:, 0] - 1.0 * X[:, 1] + 5.0, 2)
    s = morris_screen(m, [[0, 2], [-1, 3]], target_class=1)
    # coefficient times range width, sign preserved in mu
    assert s.mu == pytest.approx([4.0, -4.0], abs=1e-10)
    assert s.mu_star == pytest.approx([4.0, 4.0], abs=1e-10)
    assert (s.sigma <= 1e-10).all()
    assert (s.mu_star >= np.abs(s.mu) - 1e-15).all()


def test_interaction_raises_sigma():
    m = FnModel(lambda X: X[:, 0] * X[:, 1], 2)
    s = morris_screen(m, [[0, 1], [0, 1]], target_class=1, cfg=MorrisConfig(seed=0))
    assert (s.sigma > 0).all()
    assert (s.mu_star >= np.abs(s.mu) - 1e-15).all()


def test_predicted_class_prob_resolves_at_midpoint():
    # class 1 wins at the midpoint, so the default output tracks it
    m = FnModel(lambda X: 3.0 * X[:, 0], 2)
    s = morris_screen(m, [[0, 1], [0, 1]])
    assert abs(s.mu_star[0] - 3.0) <= 1e-10
    t = morris_screen(m, [[0, 1], [0, 1]], target_class=0)
    assert t.mu == pytest.approx([-3.0, 0.0], abs=1e-10)
    assert (s.output, t.output) == ("predicted_class_prob", "class_prob")


def test_degenerate_features_excluded():
    m = FnModel(lambda X: X[:, 0], 3)
    s = morris_screen(
        m,
        [[0, 1], [2, 2], [0, 1]],
        target_class=1,
        feature_names=("a", "b", "c"),
    )
    assert s.excluded == ("b",)
    assert np.isnan(s.mu_star[1]) and np.isnan(s.mu[1]) and np.isnan(s.sigma[1])
    assert abs(s.mu_star[0] - 1.0) <= 1e-10
    ranked = rank_features(s)
    assert [n for n, _ in ranked] == ["a", "c"]


def test_morris_determinism_and_errors():
    m = FnModel(lambda X: X[:, 0] * X[:, 1], 2)
    a = morris_screen(m, [[0, 1], [0, 1]], target_class=1, cfg=MorrisConfig(seed=4))
    b = morris_screen(m, [[0, 1], [0, 1]], target_class=1, cfg=MorrisConfig(seed=4))
    assert np.array_equal(a.mu, b.mu) and np.array_equal(a.sigma, b.sigma)
    with pytest.raises(DataError, match="trajectories"):
        MorrisConfig(n_trajectories=1)
    with pytest.raises(DataError, match="finite"):
        morris_screen(m, [[0, np.inf], [0, 1]], target_class=1)
    with pytest.raises(DataError, match="exceed"):
        morris_screen(m, [[1, 0], [0, 1]], target_class=1)
    with pytest.raises(DataError, match="zero width"):
        morris_screen(m, [[1, 1], [0, 0]], target_class=1)
    with pytest.raises(DataError, match="target_class"):
        morris_screen(m, [[0, 1], [0, 1]], target_class=2)


# --------------------------------------------------------------- ranking


def _lime_fixture(names, importances):
    k = len(names)
    return LimeExplanation(
        row_index=0,
        target_class=1,
        feature_names=tuple(names),
        weights=np.asarray(importances, dtype=float),
        importances=np.asarray(importances, dtype=float),
        intercept=0.0,
        r_squared=1.0,
        kernel_width=1.0,
        n_samples=100,
        seed=0,
    )


def test_rank_renders_importance_report_order():
    e = _lime_fixture(
        ["out_prncp", "total_rec_prncp", "acc_now_delinq"], [0.44, 0.20, 0.09]
    )
    assert [n for n, _ in rank_features(e)] == [
        "out_prncp",
        "total_rec_prncp",
        "acc_now_delinq",
    ]


def test_rank_renders_mu_star_order():
    s = MorrisScreening(
        feature_names=("recoveries", "out_prncp", "total_rec_prncp"),
        mu=np.array([0.048, 0.044, 0.040]),
        mu_star=np.array([0.048, 0.044, 0.040]),
        sigma=np.zeros(3),
        n_trajectories=20,
        n_levels=4,
        step=2 / 3,
        ranges=np.array([[0.0, 1.0]] * 3),
        excluded=(),
        seed=0,
    )
    assert rank_features(s) == [
        ("recoveries", 0.048),
        ("out_prncp", 0.044),
        ("total_rec_prncp", 0.040),
    ]
    csv = explanation_to_csv(s)
    lines = csv.strip().split("\n")
    assert lines[0] == "feature,score"
    assert lines[1].startswith("recoveries,") and lines[3].startswith("total_rec_prncp,")


def test_rank_singleton_and_ties():
    e = _lime_fixture(["only"], [1.0])
    assert rank_features(e) == [("only", 1.0)]
    tie = _lime_fixture(["b_second", "a_first"], [0.5, 0.5])
    # equal scores keep input (feature index) order
    assert [n for n, _ in rank_features(tie)] == ["b_second", "a_first"]


def test_rank_permutation_invariant_set():
    names = ["f0", "f1", "f2"]
    scores = [0.2, 0.5, 0.3]
    a = rank_features(_lime_fixture(names, scores))
    perm = [1, 2, 0]
    b = rank_features(_lime_fixture([names[i] for i in perm], [scores[i] for i in perm]))
    assert a == b
    assert [s for _, s in a] == sorted(scores, reverse=True)


def test_rank_rejects_other_types():
    with pytest.raises(DataError):
        rank_features({"not": "an explanation"})


def test_to_dict_round_trip_fields():
    e = _lime_fixture(["a", "b"], [0.6, 0.4])
    d = e.to_dict()
    assert d["features"][0] == {"name": "a", "weight": 0.6, "importance": 0.6}
    assert d["n_samples"] == 100
    m = FnModel(lambda X: X[:, 0], 2)
    s = morris_screen(m, [[0, 1], [1, 1]], target_class=1)
    sd = s.to_dict()
    assert sd["features"][1]["mu_star"] is None
    assert sd["excluded"] == ["x1"]
