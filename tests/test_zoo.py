"""The model zoo's config classes: bounds on their values and their export."""

import dataclasses
import re
import typing

import numpy as np
import pytest

import credo
from credo.config import resolve_config
from credo.errors import ConfigError, DataError
from credo.frame import numeric_frame
from credo.lda import LdaConfig, fit_lda
from credo.zoo import MODEL_FAMILIES, fit_model


def _float_fields(cls, prefix=()):
    """(path, ...) of every float-typed field of `cls`, into nested configs."""
    for f in dataclasses.fields(cls):
        hint = typing.get_type_hints(cls)[f.name]
        if dataclasses.is_dataclass(hint):
            yield from _float_fields(hint, (*prefix, f.name))
        elif float in (hint, *typing.get_args(hint)):
            yield (*prefix, f.name)


FLOAT_FIELDS = [
    (name, path) for name, (cls, *_) in MODEL_FAMILIES.items() for path in _float_fields(cls)
]


def _params(path, value):
    for key in reversed(path):
        value = {key: value}
    return value


def test_every_named_float_field_is_collected():
    found = {(name, ".".join(path)) for name, path in FLOAT_FIELDS}
    assert found >= {
        ("logreg", "l2"), ("logreg", "tol"), ("gnb", "var_smoothing"),
        ("gbt", "learning_rate"), ("gbt", "lam"), ("gbt", "gamma"), ("gbt", "min_child_weight"),
        ("mlp", "learning_rate"), ("lda", "ridge"),
        ("xgdnn", "gbt.lam"), ("xgdnn", "gbt.min_child_weight"), ("xgdnn", "mlp.learning_rate"),
    }


@pytest.mark.parametrize(
    "value", [float("nan"), float("inf"), float("-inf"), 10**400], ids=["nan", "inf", "-inf", "1e400"]
)
@pytest.mark.parametrize(
    "name, path", FLOAT_FIELDS, ids=[f"{n}.{'.'.join(p)}" for n, p in FLOAT_FIELDS]
)
def test_a_non_finite_float_param_is_a_data_error(name, path, value):
    # the config classes raise DataError; the same value as JSON params is
    # the ConfigError the CLI reports, naming the field's path
    with pytest.raises(DataError, match=path[-1]):
        _built(MODEL_FAMILIES[name][0], path, value)
    train = numeric_frame(np.arange(8.0).reshape(4, 2), labels=[0, 0, 1, 1])
    key = r"\.".join(path)
    with pytest.raises(ConfigError, match=rf"^params\.{key}: expected a finite number$"):
        fit_model(name, train, _params(path, value))


def _built(cls, path, value):
    """`cls` with the field at `path` set to `value`, each nested config
    built through its own class."""
    name, *rest = path
    if rest:
        value = _built(typing.get_type_hints(cls)[name], rest, value)
    return cls(**{name: value})


@pytest.fixture(scope="module")
def two_class():
    rng = np.random.default_rng(5)
    labels = np.repeat([0, 1], 100)
    return numeric_frame(rng.normal(size=(200, 4)) + labels[:, None], labels=labels)


# params that a typed JSON reader refuses: each names its key
BAD_PARAMS = {
    "forest_bootstrap_string": (
        "forest", {"n_trees": 3, "bootstrap": "no"}, "params.bootstrap: expected true or false"
    ),
    "gbt_max_depth_bool": ("gbt", {"max_depth": True}, "params.max_depth: expected an integer"),
    "tree_max_depth_float": ("tree", {"max_depth": 2.0}, "params.max_depth: expected an integer"),
    "gbt_rounds_fraction": ("gbt", {"rounds": 2.5}, "params.rounds: expected an integer"),
    "mlp_hidden_string": ("mlp", {"hidden": "32"}, "params.hidden: expected a list"),
    "logreg_unknown_key": ("logreg", {"bogus": 1}, "params: unknown key 'bogus'"),
    "xgdnn_gbt_unknown_key": ("xgdnn", {"gbt": {"bogus": 1}}, "params.gbt: unknown key 'bogus'"),
}


@pytest.mark.parametrize("name, params, message", BAD_PARAMS.values(), ids=BAD_PARAMS.keys())
def test_fit_model_reads_params_as_the_config_file_does(two_class, name, params, message):
    with pytest.raises(ConfigError, match=re.escape(message)):
        fit_model(name, two_class, params)
    with pytest.raises(ConfigError, match=re.escape(f"config.model.{message}")):
        resolve_config({"data": "d", "target": "t", "model": {"name": name, "params": params}})


def test_fit_model_refuses_an_unknown_name(two_class):
    with pytest.raises(ConfigError, match="unknown model name 'svm'"):
        fit_model("svm", two_class, {})


@pytest.mark.parametrize("ridge", [float("nan"), float("inf")])
def test_fit_lda_rejects_a_non_finite_ridge(ridge):
    train = numeric_frame(np.arange(8.0).reshape(4, 2), labels=[0, 0, 1, 1])
    with pytest.raises(DataError, match="ridge"):
        fit_lda(train, LdaConfig(ridge=ridge))


@pytest.mark.parametrize("name", MODEL_FAMILIES)
def test_every_family_config_is_exported(name):
    cls = MODEL_FAMILIES[name][0]
    assert getattr(credo, cls.__name__) is cls
    assert cls.__name__ in credo.__all__
