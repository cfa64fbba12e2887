"""Model archive: every family round-trips bit-exactly through flat files."""

import hashlib
import json
import re
import typing
from dataclasses import dataclass

import numpy as np
import pytest

from credo.archive import FORMAT_VERSION, load_model, model_type_of, save_model, schema_hash
from credo.baselines import Classifier
from credo.errors import DataError
from credo.frame import numeric_frame
from credo.neural import Mlp, init_mlp
from credo.zoo import MODEL_FAMILIES, fit_model

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


@pytest.mark.parametrize("name", sorted(MODEL_FAMILIES))
def test_round_trip_is_bit_exact(name, fitted, data, tmp_path):
    _, X_new = data
    model = fitted[name]
    before = model.predict_proba(X_new)

    save_model(model, tmp_path / name, CLASSES)
    loaded, manifest = load_model(tmp_path / name)
    assert type(model) is type(loaded) is MODEL_FAMILIES[name][2]

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


@pytest.mark.parametrize("name", sorted(PARAMS))
def test_every_family_checks_its_feature_names(name, fitted, data, tmp_path):
    _, X_new = data
    model = fitted[name]
    assert model.feature_names == tuple(FEATURES)
    with pytest.raises(DataError, match="do not match"):
        model.predict_proba(numeric_frame(X_new[:, ::-1], FEATURES[::-1]))
    from_frame = model.predict_proba(numeric_frame(X_new, FEATURES))
    assert np.array_equal(from_frame, model.predict_proba(X_new))
    save_model(model, tmp_path, CLASSES)
    loaded, _ = load_model(tmp_path)
    assert loaded.feature_names == model.feature_names
    if name == "xgdnn":
        assert loaded.head.feature_names == model.head.feature_names == tuple(FEATURES)


def test_manifest_contents(fitted, tmp_path):
    manifest = save_model(fitted["gnb"], tmp_path / "m", CLASSES, target_name="status")
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
    save_model(fitted["gnb"], tmp_path / "m", CLASSES)
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
    save_model(fitted["gnb"], tmp_path, CLASSES)
    (tmp_path / "manifest.json").write_text("{not json")
    with pytest.raises(DataError, match="unreadable"):
        load_model(tmp_path)


def test_wrong_format_version(fitted, tmp_path):
    manifest = save_model(fitted["gnb"], tmp_path, CLASSES)
    manifest["format_version"] = 99
    (tmp_path / "manifest.json").write_text(json.dumps(manifest))
    with pytest.raises(DataError, match="format_version"):
        load_model(tmp_path)


def test_unknown_model_type(fitted, tmp_path):
    manifest = save_model(fitted["gnb"], tmp_path, CLASSES)
    for model, shown in (("perceptron9000", "perceptron9000"), (["gnb"], r"\['gnb'\]")):
        manifest["model"] = model
        (tmp_path / "manifest.json").write_text(json.dumps(manifest))
        with pytest.raises(DataError, match=shown):
            load_model(tmp_path)


def test_missing_array_file(fitted, tmp_path):
    save_model(fitted["gnb"], tmp_path, CLASSES)
    (tmp_path / "means.f64").unlink()
    with pytest.raises(DataError, match="means.f64"):
        load_model(tmp_path)


def test_truncated_array_file(fitted, tmp_path):
    save_model(fitted["gnb"], tmp_path, CLASSES)
    raw = (tmp_path / "means.f64").read_bytes()
    (tmp_path / "means.f64").write_bytes(raw[:-8])
    with pytest.raises(DataError, match="means"):
        load_model(tmp_path)


def test_unarchivable_object():
    with pytest.raises(DataError, match="dict"):
        model_type_of({})


@pytest.mark.parametrize("name", sorted(PARAMS))
def test_a_non_finite_stored_value_is_a_data_error(name, fitted, tmp_path):
    save_model(fitted[name], tmp_path, CLASSES)
    clean = {p: p.read_bytes() for p in tmp_path.glob("*.f64")}
    for path, raw in clean.items():
        values = np.frombuffer(raw, dtype="<f8").copy()
        at = 0
        if path.stem.endswith("threshold"):  # NaN is a leaf's mark: put it at an inner node
            feature = np.fromfile(path.with_name(path.name.replace("threshold", "feature")), dtype="<f8")
            at = np.flatnonzero(feature >= 0)[0]
        for bad in (np.nan, np.inf):
            values[at] = bad
            path.write_bytes(values.tobytes())
            with pytest.raises(DataError, match="non-finite|NaN threshold"):
                load_model(tmp_path)
        path.write_bytes(raw)


def _number_params(params, prefix=()):
    """The path of every number in a manifest's params, into nested models."""
    for key, value in params.items():
        if isinstance(value, dict):
            yield from _number_params(value, (*prefix, key))
        elif isinstance(value, (int, float)) and not isinstance(value, bool):
            yield (*prefix, key)


# the families whose manifests hold number params
@pytest.mark.parametrize("name", ["gbt", "lda", "logreg", "mlp", "xgdnn"])
def test_a_non_finite_param_is_a_data_error(name, fitted, tmp_path):
    save_model(fitted[name], tmp_path, CLASSES)
    clean = json.loads((tmp_path / "manifest.json").read_text())
    paths = list(_number_params(clean["params"]))
    assert paths
    for *outer, key in paths:
        for bad in (np.nan, np.inf, -np.inf):
            manifest = json.loads(json.dumps(clean))
            table = manifest["params"]
            for part in outer:
                table = table[part]
            table[key] = bad
            (tmp_path / "manifest.json").write_text(json.dumps(manifest))
            with pytest.raises(DataError, match=".".join(("params", *outer, key)) + ": expected an? (integer|finite number)"):
                load_model(tmp_path)


# wrong JSON values for a param of each type: a string, a bool for a
# number, a fractional float for an int, a list, and null
WRONG_JSON = {
    bool: ["yes", 1, [True], None],
    int: ["150", True, 2.7, [1], None],
    float: ["0.5", True, [0.5], None],
    str: [1, True, ["margins"], None],
}


def _wrong_values(hint):
    """Each wrong JSON value for a field of type `hint`, with the suffix its
    error path carries past the field's own path."""
    options = typing.get_args(hint)
    if typing.get_origin(hint) is tuple:  # a list: wrong as a whole, or in its first item
        whole = [(v, "") for v in WRONG_JSON[options[0]] if not isinstance(v, list)]
        return whole + [([v], "[0]") for v in WRONG_JSON[options[0]]]
    if type(None) in options:  # an optional: null is right
        (inner,) = [t for t in options if t is not type(None)]
        return [(v, "") for v in WRONG_JSON[inner] if v is not None]
    return [(v, "") for v in WRONG_JSON[hint]]


def _typed_params(cls, params, prefix=("params",)):
    """(path, type hint) of every archived param of a `cls` model, into nested models."""
    hints = typing.get_type_hints(cls)
    for key, value in params.items():
        if isinstance(value, dict):
            yield from _typed_params(hints[key], value, (*prefix, key))
        else:
            yield (*prefix, key), hints[key]


@pytest.mark.parametrize("name", sorted(MODEL_FAMILIES))
def test_a_wrong_json_type_in_a_param_is_a_data_error_naming_it(name, fitted, tmp_path):
    save_model(fitted[name], tmp_path, CLASSES)
    clean = json.loads((tmp_path / "manifest.json").read_text())
    paths = list(_typed_params(MODEL_FAMILIES[name][2], clean["params"]))
    assert bool(paths) == (name not in ("gnb", "tree", "forest"))  # those three store only arrays
    for (_, *outer, key), hint in paths:
        for bad, suffix in _wrong_values(hint):
            manifest = json.loads(json.dumps(clean))
            table = manifest["params"]
            for part in outer:
                table = table[part]
            table[key] = bad
            (tmp_path / "manifest.json").write_text(json.dumps(manifest))
            dotted = ".".join(("params", *outer, key)) + suffix
            with pytest.raises(DataError, match=re.escape(f"archive {dotted}: expected")):
                load_model(tmp_path)


@pytest.mark.parametrize("name", ["tree", "forest"])
def test_a_nan_leaf_threshold_loads(name, fitted, data, tmp_path):
    _, X_new = data
    save_model(fitted[name], tmp_path, CLASSES)
    prefix = "tree_" if name == "forest" else ""
    feature = np.fromfile(tmp_path / f"{prefix}feature.f64", dtype="<f8")
    threshold = np.fromfile(tmp_path / f"{prefix}threshold.f64", dtype="<f8")
    assert np.isnan(threshold[feature < 0]).all() and np.isfinite(threshold[feature >= 0]).all()
    loaded, _ = load_model(tmp_path)
    assert np.array_equal(loaded.predict_proba(X_new), fitted[name].predict_proba(X_new))


INTEGER_FLOATS = {"learning_rate": 1, "lam": 2}  # float fields spelled as JSON integers


@pytest.mark.parametrize(
    "name, params",
    [
        ("gbt", {"rounds": 2, "max_depth": 2, **INTEGER_FLOATS}),
        ("xgdnn", {"gbt": {"rounds": 2, "max_depth": 2, **INTEGER_FLOATS}, "mlp": {"epochs": 2}}),
    ],
    ids=["gbt", "xgdnn"],
)
def test_save_load_save_writes_the_same_files(name, params, data, tmp_path):
    train, _ = data
    save_model(fit_model(name, train, params), tmp_path / "first", CLASSES)
    save_model(load_model(tmp_path / "first")[0], tmp_path / "second", CLASSES)
    files = sorted(p.name for p in (tmp_path / "first").iterdir())
    assert files == sorted(p.name for p in (tmp_path / "second").iterdir())
    for file in files:
        assert (tmp_path / "first" / file).read_bytes() == (tmp_path / "second" / file).read_bytes(), file
    stored = json.loads((tmp_path / "first" / "manifest.json").read_text())["params"]
    booster = stored if name == "gbt" else stored["booster"]
    assert (booster["learning_rate"], booster["lam"]) == (1.0, 2.0)
    assert type(booster["learning_rate"]) is type(booster["lam"]) is float


def test_loaded_arrays_are_writable(fitted, data, tmp_path):
    # frombuffer yields read-only views; the loader must hand back copies
    save_model(fitted["logreg"], tmp_path, CLASSES)
    loaded, _ = load_model(tmp_path)
    loaded.weights[0, 0] = 0.0


# Archive bytes and predictions of every family on a tie-heavy table
# (duplicated rows, a one-hot column, a constant column). The tree and forest
# digests were recorded before the trees moved to the shared presorted split
# engine; the other six before the discriminant projection became the lda
# model itself. The on-disk layout and the fitted models must not drift.
GOLDEN_PARAMS = {
    "forest": {"n_trees": 3, "mtry": 2, "bootstrap": True},
    "gbt": {"rounds": 4, "max_depth": 2},
    "gnb": {},
    "lda": {},
    "logreg": {"max_iter": 50},
    "mlp": {"hidden": [6], "epochs": 5, "batch_size": 8, "seed": 2},
    "tree": {},
    "xgdnn": {
        "gbt": {"rounds": 3, "max_depth": 2},
        "mlp": {"hidden": [5], "epochs": 4, "batch_size": 8, "seed": 1},
        "feature_mode": "margins_plus_raw",
    },
}

GOLDEN_ARCHIVES = {
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
    "gbt": {
        "base_score.f64": "e5e83a2dbb6c259baa7bc50d27e68b117f37edfafcc3bee0e12280de483fa09b",
        "manifest.json": "c432913d7ffa6a7af5a610099f959aab79f8fb091fa9ed1acfa681411ad61a8d",
        "shapes.json": "9fd3df1062606facba27d0445a1c872c6efc7a4a036af1dd4f266d5bc94eee24",
        "tree_feature.f64": "538f8235999b2b8dcef56bb9e2ebed842709a204388bddb4a6be68dd4511f21f",
        "tree_gain.f64": "996d0e3ff4bfb338a9847eee5869f10ff96efecffb6567eb0e5e4d45768798ef",
        "tree_leaf_ordinal.f64": "7ad0da35e1c49dcc6035b20d30898662b49f9ee175faa780f68b3d634b737060",
        "tree_left.f64": "b36b59b6f08fd1c935854a79dcd9c73848cec349000ec325d81068c1025f1c6b",
        "tree_right.f64": "974cbd60ad2e8fc4307b94a29fa8dd567ab9f401cf0afd2dadd6a190846ab061",
        "tree_sizes.f64": "6e0cc00a40ddf4b87deae6f4f64cf0f1d40059b7efaceffc3d12ec6a71f3e91f",
        "tree_threshold.f64": "bf1358c6d2ad02ab3925983536bef015f9877cb2a1b4caaeb69fc2c8ede8fc00",
        "tree_weight.f64": "72fc94a1de9a8873dfd504f7f8c623c1c56052a22756bf05b6a306c0a6ce741d",
        "predict_proba": "fd4efd881525c3f5158e28758334075471d582105ce252b689aaf0076ef9ba5a",
    },
    "gnb": {
        "manifest.json": "151b7ee7017c76d2e2af0adfb1adf716c8f3105c30270c993b65e5a9b36f425a",
        "means.f64": "ffe3d8435b4fbd87798f388f759745858e0c22227cbe3560198fa7ec1e97121e",
        "priors.f64": "ff1ee9825fe1e220747f3fb0bb3add3c9df90bf8591e0d430154d8e612867829",
        "shapes.json": "78f2e4ac20b4c7ff754383f514388e0741d6603f041139ae7b10ebc927b5970f",
        "variances.f64": "36c5d6dfe29066e1e8ca240160fd1df5296d5e10841c54dd339a3ef033fa3089",
        "predict_proba": "744718a70dac7dfff5b718b5eb51fa33629d161a4df5716e128a7c6412207ba6",
    },
    "lda": {
        "between_scatter.f64": "b78ac145eadef79c0bab188b76f5f1b2971a732460d39798f99879072716f547",
        "class_means.f64": "ffe3d8435b4fbd87798f388f759745858e0c22227cbe3560198fa7ec1e97121e",
        "class_priors.f64": "ff1ee9825fe1e220747f3fb0bb3add3c9df90bf8591e0d430154d8e612867829",
        "components.f64": "de37e633ffcf367f114a5a03b482cae1011fb6be083caa2f97d428a205e09d70",
        "eigenvalues.f64": "635a4584b8397bec225ce0932a84e55d31e3d13a39b18bcb10633f8bc7097258",
        "grand_mean.f64": "2104d0c05c1e71d8296c388df5bc82a9a479c82844c69b4f303acf36d8be669b",
        "manifest.json": "344c98de6651df2cd159c0bd90d159c6ae0ced911002a0d163b81275456a7510",
        "shapes.json": "cfc6a52f140e95c749584bf15f0509329fd4e4f00544b8a4e4af081f628d7013",
        "within_scatter.f64": "14d30e30e4449d6562741afc28ae18820e127bb8be7a5d148fd0050332eab2a7",
        "predict_proba": "c9db482fc2677a4f003628c3c95fbd57f4d8b846a77d050f05df048c9d74c25b",
    },
    "logreg": {
        "bias.f64": "c501ffa964ce209034b7233c72985edb3dad82a48e0df8554cf82b85205e749d",
        "loss_history.f64": "abf725a49b017fd4103d65b740d20f94844531ae1d88863273e226350cb84770",
        "manifest.json": "c66911475823da5c2fe25eda3fbd8806f5d36a10bb963f3502f3efe3524fad48",
        "shapes.json": "a53ad9b0ad50cdc2466293036cb0c5681b12c0f1fad5858749696f9355d99079",
        "weights.f64": "23898e1d3b9391408aac984520f89dd8231b72cf03ea4ea8c6ca37e6ce081a00",
        "predict_proba": "723b54fb0197f46db3f69cda93f2435181ed0ef747be51937916846c3cf912c6",
    },
    "mlp": {
        "b0.f64": "394736f424da860f64d80ebfd704f01d6f37b51fec32d6e2a3cb175cfd0ec936",
        "b1.f64": "8c9cc0241fbf16a3860d6fc2553b0f9116c2a008ec8dabc87f5ccaeed3042c38",
        "manifest.json": "c40ba4dc2981005152394282e6fa1c7327c4e1b4cd93d64218c4407d7939edbf",
        "shapes.json": "44ba17118147068237d377e0ed48d4e32105f07bdd55725751e3fc05d425c79a",
        "w0.f64": "147afc4d4e0fa80d07f79b6db08c314ff3a16c394ff71d260fd9c8897cf3c1e6",
        "w1.f64": "9a54b94605d3d7a74aeaa62110e2958116deb0cc6a1e1b656e2881772be4303f",
        "predict_proba": "ab977ee36632f293cecaa52d62c27c0963e4f2a70d1f43e50a584def62808006",
    },
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
    "xgdnn": {
        "booster_base_score.f64": "e5e83a2dbb6c259baa7bc50d27e68b117f37edfafcc3bee0e12280de483fa09b",
        "booster_tree_feature.f64": "8585681faadbd354152f1eed96d5817070b2d5737df5b477411a6e0ea44e424e",
        "booster_tree_gain.f64": "8d7e84c7ec16e6361cdce4bfdc8ac4d5a1d000262388cd357991f9b75560abd8",
        "booster_tree_leaf_ordinal.f64": "102f9bb5bf3bc03ed9b5a61081659336222621409a8c023935b3e843c404592d",
        "booster_tree_left.f64": "41fe5527f6cc6bcba80b4644a4b10f36604119de4644f01a8fc8e35a00d03bb6",
        "booster_tree_right.f64": "f3c9fe4e1446660f4e6010d9c82ab739b4847920ec394266d5598f14f2a7829a",
        "booster_tree_sizes.f64": "d0b8c970a3c30805f952050b6cde8cf0e70528c17189cfe6c561d541d0fcc8bd",
        "booster_tree_threshold.f64": "1822760a2d15cbce6be8df77ab9dfda3a2ca81dc5271f4484aef3cf438d71e66",
        "booster_tree_weight.f64": "3ee65e0b04e731ddb2e0207472e2a0f252bb2b9fa8791ba18185b5dc85b50678",
        "head_b0.f64": "f2943d87d892d0aa7ffab90b4c7c4637a961f970dac8623fd0c0a3d577f3550e",
        "head_b1.f64": "d31a3ea5ee13363475d0f67e0296150cf559c45d6a361ba33f89cd729baadc7a",
        "head_w0.f64": "85ebcdf286ef7b6103cef4886f5599f2ae4a3d5b47237f55436a2341569aeb28",
        "head_w1.f64": "4fbc6311d35b52ae89bb3f4657747f0142995d734785dea07b5db53e8e239e03",
        "manifest.json": "ad339ba74b191454a742a615bdaf9f551e22a0dd064aa07340667ff267583182",
        "shapes.json": "dcb75db31bd48b65ecbb42ef89549d64f118ab61dd0f4f5f774f05d2450f813e",
        "predict_proba": "fc8450aae54e4bb86a1a08dc29a07fb2502191d001ed604755073c63539cf542",
    },
}


def _tie_heavy_table():
    i = np.arange(24)
    base = np.column_stack(
        [(i * 7) % 5, i % 3 == 0, ((i * i) % 11) / 2.0, np.full(24, 2.5)]
    ).astype(float)
    y = (base[:, 0].astype(int) + 2 * base[:, 1].astype(int) + i % 2) % 3
    return np.vstack([base, base[::2]]), np.concatenate([y, y[::2]])


@pytest.mark.parametrize("name", sorted(GOLDEN_ARCHIVES))
def test_cart_archive_bytes_are_golden(name, tmp_path):
    X, y = _tie_heavy_table()
    train = numeric_frame(X, FEATURES, labels=y, class_names=CLASSES)
    model = fit_model(name, train, GOLDEN_PARAMS[name])
    save_model(model, tmp_path, CLASSES)
    digests = {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in tmp_path.iterdir()}
    digests["predict_proba"] = hashlib.sha256(model.predict_proba(X).tobytes()).hexdigest()
    assert digests == GOLDEN_ARCHIVES[name]


@pytest.mark.parametrize(
    "drop, message",
    [
        (("shapes", "booster_tree_weight"), "missing array booster_tree_weight"),
        (("params", "booster", "lam"), "missing param lam"),
        (("params", "head"), "missing param head"),
        (("shapes", "head_w1"), "one weight/bias pair"),
    ],
)
def test_broken_nested_archive_is_a_data_error(drop, message, fitted, tmp_path):
    save_model(fitted["xgdnn"], tmp_path, CLASSES)
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    shapes = json.loads((tmp_path / "shapes.json").read_text())
    table = {"shapes": shapes, "params": manifest["params"]}[drop[0]]
    for key in drop[1:-1]:
        table = table[key]
    del table[drop[-1]]
    (tmp_path / "manifest.json").write_text(json.dumps(manifest))
    (tmp_path / "shapes.json").write_text(json.dumps(shapes))
    with pytest.raises(DataError, match=message):
        load_model(tmp_path)


@dataclass(frozen=True)
class Toy(Classifier):
    """A model family unknown to the archive module: one field per rule."""

    feature_names: tuple[str, ...]
    scale: np.ndarray
    layers: tuple[np.ndarray, ...]
    sizes: tuple[int, ...]
    temperature: float | None
    head: Mlp

    @property
    def n_classes(self) -> int:
        return self.head.n_classes


def test_a_new_family_needs_no_archive_code(monkeypatch, tmp_path):
    monkeypatch.setitem(MODEL_FAMILIES, "toy", (None, None, Toy))  # the archive reads only the class
    toy = Toy(tuple(FEATURES), np.arange(4.0), (np.ones((2, 2)), np.zeros(3)), (4, 3), None, init_mlp((4, 5, 3), 0))
    save_model(toy, tmp_path, CLASSES)
    assert sorted(p.name for p in tmp_path.iterdir()) == [
        "head_b0.f64", "head_b1.f64", "head_w0.f64", "head_w1.f64",
        "l0.f64", "l1.f64", "manifest.json", "scale.f64", "shapes.json",
    ]
    loaded, manifest = load_model(tmp_path)
    assert manifest["params"] == {
        "head": {"final_loss": None, "layer_sizes": [4, 5, 3]},
        "sizes": [4, 3],
        "temperature": None,
    }
    assert loaded.sizes == (4, 3) and loaded.temperature is None and loaded.n_features == 4
    assert np.array_equal(loaded.scale, toy.scale)
    assert all(np.array_equal(a, b) for a, b in zip(loaded.layers, toy.layers))
    X = np.random.default_rng(0).normal(size=(5, 4))
    assert np.array_equal(loaded.head.predict_proba(X), toy.head.predict_proba(X))
