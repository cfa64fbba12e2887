import numpy as np
import pytest

from credo.errors import DataError, SmoteKClampWarning
from credo.frame import numeric_frame
from credo.resample import SmoteConfig, smote


def _frame(X, y):
    return numeric_frame(np.asarray(X, dtype=float), labels=np.asarray(y))


def test_balanced_input_returned_unchanged():
    f = _frame([[0, 0], [1, 1], [2, 2], [3, 3]], [0, 0, 1, 1])
    out = smote(f, SmoteConfig(k_neighbors=1, seed=0))
    assert out is f


def test_histogram_exactly_flat():
    rng = np.random.default_rng(0)
    sizes = [50, 9, 23, 4, 17, 31, 8, 12, 5, 40]
    X = rng.normal(size=(sum(sizes), 6))
    y = np.repeat(np.arange(10), sizes)
    with pytest.warns(SmoteKClampWarning) as caught:  # classes 3 and 8 have at most k rows
        out = smote(_frame(X, y), SmoteConfig(seed=1))
    assert [str(w.message).split(":")[0] for w in caught] == ["class 3", "class 8"]
    assert np.bincount(out.labels, minlength=10).tolist() == [50] * 10


def test_originals_preserved_verbatim_then_synthetics_by_class():
    rng = np.random.default_rng(3)
    X = rng.normal(size=(12, 4))
    y = np.array([0] * 6 + [1] * 4 + [2] * 2)
    f = _frame(X, y)
    out = smote(f, SmoteConfig(k_neighbors=1, seed=2))
    assert np.array_equal(out.feature_matrix()[:12], X)
    assert np.array_equal(out.labels[:12], y)
    # synthetic tail: classes ascend (two class-1 rows, then four class-2 rows)
    assert out.labels[12:].tolist() == [1, 1, 2, 2, 2, 2]


def test_segment_geometry_collinear_minority():
    # minority on the segment (0,0)-(1,0): every synthetic point is (t, 0)
    X = np.array([[0.0, 0.0], [1.0, 0.0], [5.0, 5.0], [6.0, 5.0], [7.0, 5.0], [5.5, 6.0], [6.5, 6.0]])
    y = np.array([0, 0, 1, 1, 1, 1, 1])
    out = smote(_frame(X, y), SmoteConfig(k_neighbors=1, seed=4))
    synth = out.feature_matrix()[7:]
    assert synth.shape == (3, 2)
    assert np.all(synth[:, 1] == 0.0)
    assert np.all((synth[:, 0] >= 0.0) & (synth[:, 0] <= 1.0))


def test_every_synthetic_point_is_a_neighbor_interpolation():
    rng = np.random.default_rng(9)
    Xc = rng.normal(size=(7, 3))
    X = np.vstack([Xc, rng.normal(loc=10.0, size=(20, 3))])
    y = np.array([0] * 7 + [1] * 20)
    k = 3
    out = smote(_frame(X, y), SmoteConfig(k_neighbors=k, seed=5))
    # brute-force neighbor lists for the minority class
    d = np.linalg.norm(Xc[:, None, :] - Xc[None, :, :], axis=2)
    np.fill_diagonal(d, np.inf)
    nn = np.argsort(d, axis=1)[:, :k]
    for p in out.feature_matrix()[27:]:
        ok = False
        for a in range(7):
            for b in nn[a]:
                ab = Xc[b] - Xc[a]
                denom = float(ab @ ab)
                if denom == 0.0:
                    ok = ok or np.allclose(p, Xc[a], atol=1e-9)
                    continue
                u = float((p - Xc[a]) @ ab) / denom
                if -1e-12 <= u <= 1 + 1e-12:
                    residual = np.linalg.norm(p - (Xc[a] + u * ab))
                    if residual <= 1e-9:
                        ok = True
        assert ok, f"synthetic point {p} is not on any neighbor segment"


def test_majority_class_untouched():
    rng = np.random.default_rng(11)
    X = rng.normal(size=(15, 2))
    y = np.array([0] * 10 + [1] * 5)
    with pytest.warns(SmoteKClampWarning, match="class 1: k_neighbors 5 >= class size 5"):
        out = smote(_frame(X, y), SmoteConfig(seed=0))
    majority_rows = out.feature_matrix()[out.labels == 0]
    assert np.array_equal(majority_rows, X[:10])


def test_deterministic_per_seed():
    rng = np.random.default_rng(13)
    X = rng.normal(size=(20, 3))
    y = np.array([0] * 14 + [1] * 6)
    a = smote(_frame(X, y), SmoteConfig(seed=21))
    b = smote(_frame(X, y), SmoteConfig(seed=21))
    c = smote(_frame(X, y), SmoteConfig(seed=22))
    assert np.array_equal(a.feature_matrix(), b.feature_matrix())
    assert not np.array_equal(a.feature_matrix(), c.feature_matrix())


def test_k_clamped_with_warning():
    X = np.array([[0.0], [1.0], [2.0], [10.0], [11.0], [12.0], [13.0]])
    y = np.array([0, 0, 0, 1, 1, 1, 1])
    with pytest.warns(SmoteKClampWarning, match="clamped to 2"):
        out = smote(_frame(X, y), SmoteConfig(k_neighbors=5, seed=1))
    assert np.bincount(out.labels).tolist() == [4, 4]


def test_single_row_class_errors():
    X = np.array([[0.0], [1.0], [2.0], [9.0]])
    y = np.array([0, 0, 0, 1])
    with pytest.raises(DataError, match="at least 2"):
        smote(_frame(X, y), SmoteConfig(seed=0))


def test_config_validation():
    with pytest.raises(DataError):
        SmoteConfig(k_neighbors=0)
