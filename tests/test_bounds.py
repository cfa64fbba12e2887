"""Bounds declared as field types: the constructor and the JSON reader agree."""

import dataclasses
import math
import typing
from typing import Annotated, Literal

import numpy as np
import pytest

from credo.baselines import Classifier
from credo.bounds import Bounded, Range, field_types
from credo.config import _Model, _Run, _Split, read_value
from credo.errors import ConfigError, DataError
from credo.frame import numeric_frame
from credo.gbt import BoostedEnsemble, GbtConfig
from credo.lda import ProjectionLDA, fit_lda
from credo.neural import HybridXgDnn, MlpConfig, XgdnnConfig, fit_hybrid
from credo.synth import SynthSpec
from credo.zoo import MODEL_FAMILIES


def _subclasses(cls):
    for sub in cls.__subclasses__():
        yield sub
        yield from _subclasses(sub)


BOUNDED = sorted(set(_subclasses(Bounded)), key=lambda c: c.__name__)
REQUIRED = {_Run: {"data": "d", "target": "t"}, _Model: {"name": "gnb"}}  # JSON for required keys


def _train():
    labels = np.repeat([0, 1], 10)
    return numeric_frame(np.random.default_rng(3).normal(size=(20, 2)) + labels[:, None], labels=labels)


def _hybrid():
    return fit_hybrid(_train(), XgdnnConfig(GbtConfig(rounds=1, max_depth=1), MlpConfig(hidden=(2,), epochs=1)))


# a valid instance of each bounded model class, which JSON cannot build
MODELS = {
    BoostedEnsemble: lambda: BoostedEnsemble(2, ("x0",), 0, 0.3, 1.0, 0.0, 1.0, np.zeros(2), ()),
    ProjectionLDA: lambda: fit_lda(_train()),
    HybridXgDnn: _hybrid,
}


def _leaf(hint):
    """`hint` without an optional's None, and whether its bound is on items."""
    if type(None) in typing.get_args(hint):
        (hint,) = [t for t in typing.get_args(hint) if t is not type(None)]
    if typing.get_origin(hint) is tuple:
        return typing.get_args(hint)[0], True
    return hint, False


def _is_array(hint):
    return typing.get_origin(hint) is Annotated and hint.__origin__ is np.ndarray


def _cases():
    """(class, field, whether the bound is on its items, value, whether both
    readers accept it) for each end of each bound: the end itself and a
    value just past it, and for a float the values that are not finite; a
    word inside and outside its choices. JSON holds no array, so an array's
    bounds are left to tests/test_shapes.py."""
    for cls in BOUNDED:
        for f in dataclasses.fields(cls):
            hint, items = _leaf(field_types(cls)[f.name])
            if typing.get_origin(hint) is Literal:
                yield from ((cls, f.name, items, word, True) for word in typing.get_args(hint))
                yield cls, f.name, items, "nope", False
                continue
            if typing.get_origin(hint) is not Annotated or _is_array(hint):
                continue
            kind, bound = typing.get_args(hint)
            assert isinstance(bound, Range)
            for end, is_open, outward in ((bound.low, bound.open_low, -1), (bound.high, bound.open_high, 1)):
                if end is None:
                    continue
                past = end + outward if kind is int else math.nextafter(end, outward * math.inf)
                yield cls, f.name, items, kind(end), not is_open
                if not is_open:
                    yield cls, f.name, items, kind(past), False
            if kind is float:
                yield from ((cls, f.name, items, v, False) for v in (math.nan, math.inf, -math.inf, 10**400))


CASES = list(_cases())


def _base(cls):
    if cls in MODELS:
        return MODELS[cls]()
    return read_value(cls, REQUIRED.get(cls, {}), "base")


def _json_read(cls, name, value):
    """`value` read as JSON for field `name` of `cls`: through the class for a
    config, through the field's type for a model, as an archive reads it."""
    if issubclass(cls, Classifier):
        return read_value(field_types(cls)[name], value, f"{cls.__name__}.{name}")
    return read_value(cls, {**REQUIRED.get(cls, {}), name: value}, cls.__name__)


@pytest.mark.parametrize(
    "cls, name, items, value, accepted",
    CASES,
    ids=[f"{c.__name__}.{n}={'10**400' if v == 10**400 else repr(v)}" for c, n, _, v, _ in CASES],
)
def test_the_constructor_and_read_value_agree_on_every_bound(cls, name, items, value, accepted):
    base = _base(cls)
    given, as_json = ((value,), [value]) if items else (value, value)
    if accepted:
        assert getattr(dataclasses.replace(base, **{name: given}), name) == given
        _json_read(cls, name, as_json)
        return
    with pytest.raises(DataError) as built:
        dataclasses.replace(base, **{name: given})
    with pytest.raises(ConfigError) as read:
        _json_read(cls, name, as_json)
    assert str(built.value).startswith(f"{name}[0]: " if items else f"{name}: ")
    assert str(read.value) == f"{cls.__name__}.{built.value}"


def test_every_bounded_class_is_covered():
    covered = {c for c, *_ in CASES}
    for cls in set(BOUNDED) - covered:  # a class that bounds only arrays
        hints = [_leaf(field_types(cls)[f.name])[0] for f in dataclasses.fields(cls)]
        bounded = [h for h in hints if typing.get_origin(h) in (Annotated, Literal)]
        assert bounded and all(map(_is_array, bounded)), cls
    assert {_Split, _Run, SynthSpec, BoostedEnsemble, ProjectionLDA} <= covered
    assert set(MODELS) == {c for c in covered if issubclass(c, Classifier)}


# int and float fields whose bound reads another field, in `__post_init__`
CROSS_FIELD = {(SynthSpec, "rows"), (SynthSpec, "features")}


def _config_classes():
    """Every class a config file, a command flag or a model's params sets,
    into nested sections."""
    seen, todo = set(), [_Run, SynthSpec, *(cfg for cfg, *_ in MODEL_FAMILIES.values())]
    while todo:
        cls = todo.pop()
        if cls in seen:
            continue
        seen.add(cls)
        todo += [h for h, _ in map(_leaf, field_types(cls).values()) if dataclasses.is_dataclass(h)]
    return seen


def test_every_number_in_a_config_class_declares_its_bound():
    classes = _config_classes()
    assert len(classes) >= 17
    unbounded = []
    for cls in classes:
        assert issubclass(cls, Bounded), cls
        for f in dataclasses.fields(cls):
            hint, _ = _leaf(field_types(cls)[f.name])
            if hint in (int, float) and (cls, f.name) not in CROSS_FIELD:
                unbounded.append(f"{cls.__name__}.{f.name}")
    assert unbounded == []
