"""Model archive: every family round-trips bit-exactly through flat files."""

import hashlib
import json

import numpy as np
import pytest

from credo.archive import FORMAT_VERSION, load_model, model_type_of, save_model, schema_hash
from credo.errors import DataError
from credo.frame import numeric_frame
from credo.zoo import fit_model

FEATURES = ["f0", "f1", "f2", "f3"]
CLASSES = ("c0", "c1", "c2")

PARAMS = {
    "logreg": {"max_iter": 80},
    "gnb": {},
    "tree": {"max_depth": 4},
    "forest": {"n_trees": 5, "max_depth": 3, "seed": 1},
    "gbt": {"rounds": 5, "max_depth": 2},
    "mlp": {"hidden": [8], "epochs": 10, "batch_size": 32, "seed": 0},
    "lda": {"n_components": 2},
    "xgdnn": {
        "gbt": {"rounds": 4, "max_depth": 2},
        "mlp": {"hidden": [8], "epochs": 8, "batch_size": 32, "seed": 0},
    },
}


@pytest.fixture(scope="module")
def data():
    rng = np.random.default_rng(7)
    means = rng.normal(scale=2.0, size=(3, 4))
    labels = np.repeat(np.arange(3), 50)
    X = rng.normal(size=(150, 4)) + means[labels]
    train = numeric_frame(X, FEATURES, labels=labels, class_names=CLASSES)
    X_new = rng.normal(size=(20, 4)) + means[rng.integers(0, 3, 20)]
    return train, X_new


@pytest.fixture(scope="module")
def fitted(data):
    train, _ = data
    return {name: fit_model(name, train, dict(p)) for name, p in PARAMS.items()}


@pytest.mark.parametrize("name", sorted(PARAMS))
def test_round_trip_is_bit_exact(name, fitted, data, tmp_path):
    _, X_new = data
    model = fitted[name]
    before = model.predict_proba(X_new)

    save_model(model, tmp_path / name, FEATURES, CLASSES)
    loaded, manifest = load_model(tmp_path / name)

    after = loaded.predict_proba(X_new)
    assert np.array_equal(before, after)
    assert np.array_equal(model.predict(X_new), loaded.predict(X_new))
    assert manifest["model"] == name == model_type_of(model)
    assert loaded.n_classes == 3
    assert loaded.n_features == model.n_features


@pytest.mark.parametrize("name", sorted(PARAMS))
def test_every_family_keeps_the_classifier_contract(name, fitted, data):
    _, X_new = data
    model = fitted[name]
    with pytest.raises(DataError, match="expects 4 features"):
        model.predict_proba(X_new[:, :3])
    with pytest.raises(DataError, match="expects 4 features"):
        model.predict_proba(X_new[0])
    assert np.array_equal(model.predict(X_new), model.predict_proba(X_new).argmax(axis=1))


def test_manifest_contents(fitted, tmp_path):
    manifest = save_model(fitted["gnb"], tmp_path / "m", FEATURES, CLASSES, target_name="status")
    assert manifest["format_version"] == FORMAT_VERSION
    assert manifest["schema"] == {
        "features": FEATURES,
        "classes": list(CLASSES),
        "target": "status",
    }
    assert manifest["schema_hash"] == schema_hash(FEATURES, CLASSES, "status")
    stored = json.loads((tmp_path / "m" / "manifest.json").read_text())
    assert stored == manifest
    shapes = json.loads((tmp_path / "m" / "shapes.json").read_text())
    assert shapes["means"] == [3, 4]
    assert (tmp_path / "m" / "means.f64").stat().st_size == 3 * 4 * 8


def test_array_files_are_little_endian_doubles(fitted, tmp_path):
    save_model(fitted["gnb"], tmp_path / "m", FEATURES, CLASSES)
    raw = (tmp_path / "m" / "priors.f64").read_bytes()
    assert np.allclose(np.frombuffer(raw, dtype="<f8").sum(), 1.0)


def test_schema_hash_is_order_sensitive():
    a = schema_hash(["x", "y"], ["c0", "c1"], "t")
    assert len(a) == 16
    assert a == schema_hash(["x", "y"], ["c0", "c1"], "t")
    assert a != schema_hash(["y", "x"], ["c0", "c1"], "t")
    assert a != schema_hash(["x", "y"], ["c0", "c1"], "u")


def test_missing_manifest(tmp_path):
    with pytest.raises(DataError, match="manifest.json"):
        load_model(tmp_path)


def test_corrupt_manifest(fitted, tmp_path):
    save_model(fitted["gnb"], tmp_path, FEATURES, CLASSES)
    (tmp_path / "manifest.json").write_text("{not json")
    with pytest.raises(DataError, match="unreadable"):
        load_model(tmp_path)


def test_wrong_format_version(fitted, tmp_path):
    manifest = save_model(fitted["gnb"], tmp_path, FEATURES, CLASSES)
    manifest["format_version"] = 99
    (tmp_path / "manifest.json").write_text(json.dumps(manifest))
    with pytest.raises(DataError, match="format_version"):
        load_model(tmp_path)


def test_unknown_model_type(fitted, tmp_path):
    manifest = save_model(fitted["gnb"], tmp_path, FEATURES, CLASSES)
    manifest["model"] = "perceptron9000"
    (tmp_path / "manifest.json").write_text(json.dumps(manifest))
    with pytest.raises(DataError, match="perceptron9000"):
        load_model(tmp_path)


def test_missing_array_file(fitted, tmp_path):
    save_model(fitted["gnb"], tmp_path, FEATURES, CLASSES)
    (tmp_path / "means.f64").unlink()
    with pytest.raises(DataError, match="means.f64"):
        load_model(tmp_path)


def test_truncated_array_file(fitted, tmp_path):
    save_model(fitted["gnb"], tmp_path, FEATURES, CLASSES)
    raw = (tmp_path / "means.f64").read_bytes()
    (tmp_path / "means.f64").write_bytes(raw[:-8])
    with pytest.raises(DataError, match="means"):
        load_model(tmp_path)


def test_unarchivable_object():
    with pytest.raises(DataError, match="dict"):
        model_type_of({})


def test_loaded_arrays_are_writable(fitted, data, tmp_path):
    # frombuffer yields read-only views; the loader must hand back copies
    save_model(fitted["logreg"], tmp_path, FEATURES, CLASSES)
    loaded, _ = load_model(tmp_path)
    loaded.weights[0, 0] = 0.0


# Archive bytes of a CART tree and a bootstrap forest on a tie-heavy table
# (duplicated rows, a one-hot column, a constant column), recorded before the
# trees moved to the shared presorted split engine. The on-disk layout and the
# fitted splits must not drift.
GOLDEN_CART = {
    "tree": {
        "counts.f64": "21eeaf0154d6778748523d2869b8ca792c2569943c2031310adee7be422a2307",
        "feature.f64": "195825c023728c3bfa0ef71fefc1bd09549276bb8e3f4cc6383c4565560e6343",
        "left.f64": "ed163286a5ef3342c0cda4bf39c23e0bd9965169b6fb0244c63b649c1a6e2af3",
        "manifest.json": "5ca072307f7be9f1768ab1453a8409ed0faed62ec9b0e0be3c869c35be9edad7",
        "right.f64": "edbea9441d3e98786f846918f02984bf67ec0eb4a229207d768e98a646cde4e7",
        "shapes.json": "f59b07290badf5908b6ef3426bc9f1ab89274877705f008b608eac170e4ae5b2",
        "threshold.f64": "a1beb465ec81683f56292bf71e7bafa3c74fe94bb24f95b74668c9eabc805ad0",
        "predict_proba": "a92f5c37f4500f093f21d347c06badb4147bd2993e70fad100c8a10d9e0ebeb8",
    },
    "forest": {
        "manifest.json": "75323869d66f6cdf0e99dafbf2f1b2d1a69e37f5db6bd56523d7d82c5b9a409d",
        "shapes.json": "104b305fc063d602c657fe2b031cccb52e347effa5b27d58cc58d2e88cb95218",
        "tree_counts.f64": "6c79873bfd1af8a8381a95d9b5516a8230042ecad247d4731a0a79564db39a41",
        "tree_feature.f64": "c62f14ae34a0cac690497ce9b1349827080c18dfba533aaa0b6e58f10ce80620",
        "tree_left.f64": "e59dbf383e3ede6ae8998097611c30d3f0f489359571f2be45637977419da80c",
        "tree_right.f64": "5312697647c86e18eb5e88f36bff0802a1975ccfe201be1e87f4b7d7c71064e9",
        "tree_sizes.f64": "24227092a5ccc6729e0dae69442ecfad6fc91b8a6bac3f57432cabce6a4c6fd3",
        "tree_threshold.f64": "63bf7835e577285a6cbb9a76d5baf3b1934ad20e7275e4064cbfc74bf6b60f0a",
        "predict_proba": "f2c9096c025e99270df04216b249b4851b11cd4c5de5c06afd478266e4c2e5d4",
    },
}


def _tie_heavy_table():
    i = np.arange(24)
    base = np.column_stack(
        [(i * 7) % 5, i % 3 == 0, ((i * i) % 11) / 2.0, np.full(24, 2.5)]
    ).astype(float)
    y = (base[:, 0].astype(int) + 2 * base[:, 1].astype(int) + i % 2) % 3
    return np.vstack([base, base[::2]]), np.concatenate([y, y[::2]])


@pytest.mark.parametrize("name", sorted(GOLDEN_CART))
def test_cart_archive_bytes_are_golden(name, tmp_path):
    X, y = _tie_heavy_table()
    train = numeric_frame(X, FEATURES, labels=y, class_names=CLASSES)
    params = {"tree": {}, "forest": {"n_trees": 3, "mtry": 2, "bootstrap": True}}[name]
    model = fit_model(name, train, params)
    save_model(model, tmp_path, FEATURES, CLASSES)
    digests = {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in tmp_path.iterdir()}
    digests["predict_proba"] = hashlib.sha256(model.predict_proba(X).tobytes()).hexdigest()
    assert digests == GOLDEN_CART[name]
