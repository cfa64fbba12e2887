"""JSON run configuration: loading, validation, defaulting.

Every validation failure names the offending key with a dotted path
(e.g. ``config.smote.k_neighbors: expected an integer``): a config class
names the field it refuses, across fields too, and the reader its path.

The schema is one tree of frozen dataclasses rooted at ``_Run``: keys,
types and bounds come from their fields' types (see ``credo.bounds``),
defaults from their defaults, and a field with no default is a required
key. The smote, lda and explainer sections are the config classes the code
consumes, with their on/off flags added, so each bound is stated once and
a value that passes here is accepted downstream. ``resolve_config``
returns that tree, which the pipeline reads by attribute and hands its
sections to their stages as they are; ``_plain`` turns it into the JSON
that reports echo, so every setting is settable from JSON and echoed.
Model params are validated by ``model_config``, ``zoo.fit_model``'s reader
too, and kept as given. ``read_value`` is the one typed reader of JSON
values, in configs, command flags and archives alike: an integer passes
for a float, a bool is not a number, an integer must fit in int64, and a
value must keep its type's bound.
"""

from __future__ import annotations

import copy
import dataclasses
import json
import sys
import typing
from dataclasses import MISSING
from typing import Annotated, Literal

from .bounds import Bounded, NonNegInt, fault, field_types
from .errors import ConfigError, DataError
from .explain import LimeConfig, MorrisConfig
from .frame import NULL_THRESHOLD, TRAIN_FRACTION, ScalerMode
from .lda import LdaConfig
from .resample import SmoteConfig
from .zoo import MODEL_FAMILIES, MODEL_NAMES

__all__ = ["METRIC_NAMES", "SCALER_MODES", "load_config", "model_config", "read_value", "resolve_config"]

_Metric = Literal["accuracy", "sensitivity", "specificity", "g_mean", "h_measure", "f1"]
_Scaler = Literal[ScalerMode, "none"]
_ModelName = Literal[MODEL_NAMES]
METRIC_NAMES = typing.get_args(_Metric)
SCALER_MODES = typing.get_args(_Scaler)


def load_config(path: str) -> dict:
    try:
        with open(path) as fh:
            raw = json.load(fh)
    except OSError as e:
        raise ConfigError(f"cannot read config file {path!r}: {e}") from e
    except json.JSONDecodeError as e:
        raise ConfigError(f"config file {path!r} is not valid JSON: {e}") from e
    except ValueError as e:  # an integer literal past Python's digit limit, or bad UTF-8
        raise ConfigError(f"config file {path!r} cannot be read: {e}") from e
    if not isinstance(raw, dict):
        raise ConfigError("config: expected a JSON object at the top level")
    return raw


# -------------------------------------------------------------- checkers


def _fail(path: str, message: str):
    raise ConfigError(f"{path}: {message}")


def _check_keys(obj: dict, path: str, allowed):
    for key in obj:
        if key not in allowed:
            _fail(path, f"unknown key {key!r} (allowed: {', '.join(sorted(allowed))})")


def _as_object(v, path) -> dict:
    if not isinstance(v, dict):
        _fail(path, "expected an object")
    return v


def _as_bool(v, path) -> bool:
    if not isinstance(v, bool):
        _fail(path, "expected true or false")
    return v


def _as_int(v, path) -> int:
    if isinstance(v, bool) or not isinstance(v, int):
        _fail(path, "expected an integer")
    if not -(2**63) <= v < 2**63:  # numpy's sizes and seeds are int64
        _fail(path, "expected an integer in int64 range")
    return v


def _as_number(v, path) -> float:
    if isinstance(v, bool) or not isinstance(v, (int, float)):
        _fail(path, "expected a number")
    if not abs(v) <= sys.float_info.max:  # NaN, Infinity or an int past float range
        _fail(path, "expected a finite number")
    return float(v)


def _as_string(v, path) -> str:
    if not isinstance(v, str):
        _fail(path, "expected a string")
    return v


_SCALARS = {bool: _as_bool, int: _as_int, float: _as_number, str: _as_string}
_SCALARS[dict] = lambda v, path: copy.deepcopy(_as_object(v, path))  # JSON as given, not the caller's


def read_value(hint, v, path: str):
    """JSON value `v` as type `hint`, or a ConfigError naming `path`."""
    options = typing.get_args(hint)
    if type(None) in options:
        if v is None:
            return None
        (hint,) = [t for t in options if t is not type(None)]
    if dataclasses.is_dataclass(hint):
        return _build(hint, v, path)
    origin = typing.get_origin(hint)
    if origin is tuple:
        if not isinstance(v, list):
            _fail(path, "expected a list")
        return tuple(read_value(typing.get_args(hint)[0], x, f"{path}[{i}]") for i, x in enumerate(v))
    if origin not in (Literal, Annotated):
        return _SCALARS[hint](v, path)
    v = _SCALARS[str if origin is Literal else hint.__origin__](v, path)
    if message := fault(hint, v):  # a word not listed, or a number out of range
        _fail(path, message)
    return v


def _build(cls, raw, path: str):
    """Construct dataclass `cls` from the JSON object `raw`.

    Absent fields keep their defaults; a field with none is a required key.
    A bound the object fails, on one field or across fields, starts its
    message with the field it refuses, which follows `path`.
    """
    raw = _as_object(raw, path)
    fields = [f.name for f in dataclasses.fields(cls)]
    _check_keys(raw, path, fields)
    required = [f.name for f in dataclasses.fields(cls) if f.default is f.default_factory is MISSING]
    for name in required:
        if name not in raw:
            _fail(path, f"missing required key {name!r}")
    hints = field_types(cls)
    kwargs = {name: read_value(hints[name], raw[name], f"{path}.{name}") for name in fields if name in raw}
    try:
        return cls(**kwargs)
    except DataError as e:
        raise ConfigError(f"{path}.{e}") from None


def model_config(name: str, params, path: str):
    """Model family `name`'s config, read from its JSON `params` at `path`."""
    if name not in MODEL_FAMILIES:
        raise ConfigError(f"unknown model name {name!r}")
    return _build(MODEL_FAMILIES[name][0], params, path)


# ---------------------------------------------------------------- resolve


@dataclasses.dataclass(frozen=True)
class _Smote(SmoteConfig):
    enabled: bool = True
    before_split: bool = False


@dataclasses.dataclass(frozen=True)
class _Lda(LdaConfig):
    enabled: bool = False


@dataclasses.dataclass(frozen=True)
class _Morris(MorrisConfig):
    enabled: bool = False


@dataclasses.dataclass(frozen=True)
class _Split(Bounded):
    train_fraction: Annotated[float, TRAIN_FRACTION] = 0.8
    seed: NonNegInt = 7


@dataclasses.dataclass(frozen=True)
class _Explain(Bounded):
    lime_rows: tuple[NonNegInt, ...] = ()  # test-set rows to explain locally
    lime: LimeConfig = LimeConfig()
    morris: _Morris = _Morris()


@dataclasses.dataclass(frozen=True)
class _Model(Bounded):
    name: _ModelName
    params: dict = dataclasses.field(default_factory=dict)  # validated by `model_config`, kept as given


@dataclasses.dataclass(frozen=True)
class _Run(Bounded):
    data: str
    target: str
    null_threshold: Annotated[float, NULL_THRESHOLD] = 0.5
    scaler: _Scaler = "zscore"
    smote: _Smote = _Smote()
    split: _Split = _Split()
    lda: _Lda = _Lda()
    metrics: tuple[_Metric, ...] = METRIC_NAMES
    explain: _Explain = _Explain()
    out_dir: str = "credo_out"
    # one of the two is required; `resolve_config` derives the other
    model: _Model = None
    models: tuple[_Model, ...] = ()

    def __post_init__(self):
        super().__post_init__()
        if not self.metrics:
            raise DataError("metrics: expected a non-empty list of metric names")
        for i, m in enumerate(self.metrics):
            if m in self.metrics[:i]:
                raise DataError(f"metrics[{i}]: duplicate metric {m!r}")


def _plain(value):
    """`value` as JSON data: a dataclass becomes a dict, a tuple a list."""
    if dataclasses.is_dataclass(value):
        return {f.name: _plain(getattr(value, f.name)) for f in dataclasses.fields(value)}
    if isinstance(value, tuple):
        return [_plain(x) for x in value]
    return value


def resolve_config(raw: dict) -> _Run:
    """Validate `raw` and return the resolved configuration.

    The result always carries both a single `model` and a `models` tuple
    (they agree when only one was given); every optional section setting
    is filled with its default so reports can echo the settings used. A
    model's params are validated against its config class and kept as
    given: the defaults of those left out are not filled in.
    """
    if "models" in _as_object(raw, "config") and not (isinstance(raw["models"], list) and raw["models"]):
        _fail("config.models", "expected a non-empty list of model entries")
    run = _build(_Run, raw, "config")
    if run.model is None and not run.models:
        _fail("config", "missing required key 'model' (or a 'models' list)")
    entries = {f"config.models[{i}]": m for i, m in enumerate(run.models)}
    for path, m in {**entries, "config.model": run.model}.items():
        if m is not None:
            model_config(m.name, m.params, f"{path}.params")
    return dataclasses.replace(run, model=run.model or run.models[0], models=run.models or (run.model,))
