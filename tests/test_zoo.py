"""The model zoo's config classes: bounds on their values and their export."""

import dataclasses
import typing

import numpy as np
import pytest

import credo
from credo.errors import DataError
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
    train = numeric_frame(np.arange(8.0).reshape(4, 2), labels=[0, 0, 1, 1])
    with pytest.raises(DataError, match=path[-1]):
        fit_model(name, train, _params(path, value))


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
