"""Run-config loading, validation, and defaulting."""

import dataclasses
import json

import pytest

from credo.config import METRIC_NAMES, _Explain, _Model, _plain, _Run, _Split, load_config, model_config, resolve_config
from credo.errors import ConfigError
from credo.explain import LimeConfig, MorrisConfig
from credo.lda import LdaConfig
from credo.resample import SmoteConfig
from credo.zoo import MODEL_FAMILIES

MINIMAL = {"data": "d.csv", "target": "status", "model": {"name": "gnb"}}


def resolve(extra=None, **overrides):
    """The echo of the resolved config, as reports write it."""
    raw = dict(MINIMAL)
    raw.update(overrides)
    if extra:
        raw.update(extra)
    return _plain(resolve_config(raw))


# ----------------------------------------------------------------- loading


def test_load_config_reads_json(tmp_path):
    p = tmp_path / "c.json"
    p.write_text(json.dumps(MINIMAL))
    assert load_config(str(p)) == MINIMAL


def test_load_config_missing_file(tmp_path):
    with pytest.raises(ConfigError, match="cannot read config file"):
        load_config(str(tmp_path / "nope.json"))


def test_load_config_invalid_json(tmp_path):
    p = tmp_path / "c.json"
    p.write_text("{broken")
    with pytest.raises(ConfigError, match="not valid JSON"):
        load_config(str(p))


def test_load_config_non_object(tmp_path):
    p = tmp_path / "c.json"
    p.write_text("[1, 2]")
    with pytest.raises(ConfigError, match="top level"):
        load_config(str(p))


# ---------------------------------------------------------------- defaults


def test_defaults_are_filled():
    cfg = resolve()
    assert cfg["null_threshold"] == 0.5
    assert cfg["scaler"] == "zscore"
    assert cfg["out_dir"] == "credo_out"
    assert cfg["smote"] == {
        "enabled": True,
        "k_neighbors": 5,
        "seed": 0,
        "before_split": False,
    }
    assert cfg["split"] == {"train_fraction": 0.8, "seed": 7}
    assert cfg["lda"] == {"enabled": False, "n_components": None, "ridge": None}
    assert cfg["metrics"] == list(METRIC_NAMES)
    assert cfg["explain"]["lime_rows"] == []
    assert cfg["explain"]["lime"] == {
        "n_samples": 5000,
        "kernel_width": None,
        "n_features": None,
        "seed": 0,
    }
    assert cfg["explain"]["morris"] == {
        "enabled": False,
        "n_trajectories": 20,
        "n_levels": 4,
        "seed": 0,
    }


def test_single_model_mirrored_into_models():
    cfg = resolve()
    assert cfg["model"] == {"name": "gnb", "params": {}}
    assert cfg["models"] == [{"name": "gnb", "params": {}}]


def test_models_list_promotes_first_to_model():
    raw = {
        "data": "d.csv",
        "target": "t",
        "models": [{"name": "tree"}, {"name": "gnb", "params": {"var_smoothing": 1e-8}}],
    }
    cfg = resolve_config(raw)
    assert cfg.model is cfg.models[0]
    assert cfg.models == (_Model("tree"), _Model("gnb", {"var_smoothing": 1e-8}))


def test_explicit_values_survive():
    cfg = resolve(
        extra={
            "null_threshold": 0.3,
            "scaler": "minmax",
            "smote": {"enabled": False},
            "split": {"train_fraction": 0.7, "seed": 1},
            "lda": {"enabled": True, "n_components": 2},
            "metrics": ["accuracy", "f1"],
        }
    )
    assert cfg["null_threshold"] == 0.3
    assert cfg["scaler"] == "minmax"
    assert cfg["smote"]["enabled"] is False
    assert cfg["smote"]["k_neighbors"] == 5
    assert cfg["split"] == {"train_fraction": 0.7, "seed": 1}
    assert cfg["lda"] == {"enabled": True, "n_components": 2, "ridge": None}
    assert cfg["metrics"] == ["accuracy", "f1"]


def test_resolved_config_round_trips_through_resolve():
    cfg = resolve_config({**MINIMAL, "lda": {"enabled": True}})
    assert resolve_config(_plain(cfg)) == cfg


# Every field of every config class that JSON reaches can be set from JSON
# and reaches the run: sections are echoed in full, model params build the
# family's config. A knob that JSON cannot set, or a section field left out
# of the echo, fails here.

SECTIONS = {
    SmoteConfig: ("smote",),
    LdaConfig: ("lda",),
    LimeConfig: ("explain", "lime"),
    MorrisConfig: ("explain", "morris"),
    _Split: ("split",),
    _Explain: ("explain",),
    _Run: (),  # the top-level keys; each section has its own row
}
# tried in order; the first one the field accepts and that is not its default
CANDIDATES = (
    1, 2, True, False, "entropy", "margins_plus_raw", [3], {"rounds": 2}, {"epochs": 2}, ["f1"], "minmax", 0.5,
    [{"name": "tree", "params": {}}],
)


def _nest(path, value):
    for key in reversed(path):
        value = {key: value}
    return value


def _at(cfg, path):
    for key in path:
        cfg = cfg[key]
    return cfg


def _settable(cls, name, extra):
    """The config that `extra(value)` resolves to for the first candidate
    value of field `name` that resolves, and that value."""
    field = {f.name: f for f in dataclasses.fields(cls)}[name]
    default = field.default if field.default_factory is dataclasses.MISSING else field.default_factory()
    for value in CANDIDATES:
        if value == default:
            continue
        try:
            return resolve(extra=extra(value)), value
        except ConfigError:
            continue
    raise AssertionError(f"{cls.__name__}.{name} cannot be set from JSON")


@pytest.mark.parametrize("cls", SECTIONS, ids=lambda c: c.__name__)
def test_every_section_field_is_settable_and_echoed(cls):
    path = SECTIONS[cls]
    echo = _at(resolve(), path)
    names = [f.name for f in dataclasses.fields(cls) if not isinstance(echo.get(f.name), dict)]
    assert set(names) <= set(echo)
    for name in names:
        cfg, value = _settable(cls, name, lambda v: _nest(path, {name: v}))
        assert _at(cfg, path)[name] == value


@pytest.mark.parametrize("name", MODEL_FAMILIES)
def test_every_model_param_is_settable(name):
    cls = MODEL_FAMILIES[name][0]
    for field in dataclasses.fields(cls):
        cfg, value = _settable(cls, field.name, lambda v: {"model": {"name": name, "params": {field.name: v}}})
        assert cfg["model"]["params"] == {field.name: value}
        built = model_config(name, cfg["model"]["params"], "params")
        assert getattr(built, field.name) != getattr(cls(), field.name)


# ------------------------------------------------------------------ errors


def err(match, **kw):
    with pytest.raises(ConfigError, match=match):
        resolve(**kw)


def test_missing_required_keys():
    with pytest.raises(ConfigError, match="'data'"):
        resolve_config({"target": "t", "model": {"name": "gnb"}})
    with pytest.raises(ConfigError, match="'target'"):
        resolve_config({"data": "d", "model": {"name": "gnb"}})
    with pytest.raises(ConfigError, match="'model'"):
        resolve_config({"data": "d", "target": "t"})


def test_unknown_top_level_key():
    err(r"config: unknown key 'modle'", extra={"modle": 1})


def test_unknown_nested_key_names_path():
    err(r"config\.smote: unknown key 'kneighbors'", extra={"smote": {"kneighbors": 3}})


def test_dotted_path_in_nested_error():
    err(r"config\.split\.train_fraction", extra={"split": {"train_fraction": 1.0}})
    err(r"config\.smote\.k_neighbors", extra={"smote": {"k_neighbors": 0}})
    err(r"config\.explain\.lime\.n_samples", extra={"explain": {"lime": {"n_samples": 1}}})


def test_bool_is_not_an_int():
    err(r"config\.split\.seed: expected an integer", extra={"split": {"seed": True}})


def test_unknown_model_name():
    err(r"config\.model\.name: expected one of", model={"name": "svm"})


def test_unknown_model_param():
    err(r"config\.model\.params: unknown key 'depth'", model={"name": "tree", "params": {"depth": 3}})


def test_model_param_type_checks():
    err(
        r"config\.model\.params\.learning_rate: expected a number",
        model={"name": "gbt", "params": {"learning_rate": "fast"}},
    )
    err(
        r"config\.model\.params\.hidden\[1\]: expected an integer",
        model={"name": "mlp", "params": {"hidden": [8, "x"]}},
    )
    err(
        r"config\.model\.params\.gbt\.rounds",
        model={"name": "xgdnn", "params": {"gbt": {"rounds": -1}}},
    )
    err(
        r"config\.model\.params\.feature_mode",
        model={"name": "xgdnn", "params": {"feature_mode": "pixels"}},
    )


def test_a_null_model_or_models_is_refused():
    with pytest.raises(ConfigError, match=r"^config\.model: expected an object$"):
        resolve_config({"data": "d", "target": "t", "model": None})
    with pytest.raises(ConfigError, match=r"^config\.models: expected a non-empty list"):
        resolve_config({"data": "d", "target": "t", "models": None})


def test_models_must_be_nonempty_list():
    with pytest.raises(ConfigError, match=r"config\.models"):
        resolve_config({"data": "d", "target": "t", "models": []})
    with pytest.raises(ConfigError, match=r"config\.models\[1\]\.name"):
        resolve_config(
            {"data": "d", "target": "t", "models": [{"name": "gnb"}, {"name": "nope"}]}
        )


def test_metric_validation():
    err(r"config\.metrics\[0\]: expected one of", extra={"metrics": ["auc"]})
    err(r"duplicate metric", extra={"metrics": ["f1", "f1"]})
    err(r"config\.metrics: expected a non-empty list", extra={"metrics": []})


def test_scaler_choices():
    err(r"config\.scaler: expected one of", extra={"scaler": "robust"})


def test_lime_rows_must_be_nonnegative_ints():
    err(r"config\.explain\.lime_rows\[0\]", extra={"explain": {"lime_rows": [-1]}})
    err(r"config\.explain\.lime_rows", extra={"explain": {"lime_rows": "all"}})
