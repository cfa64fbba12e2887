"""JSON run configuration: loading, validation, defaulting.

Every validation failure names the offending key with a dotted path
(e.g. ``config.smote.k_neighbors: expected an integer``) so a bad file
can be fixed without reading source. ``resolve_config`` returns a plain
dict with every section setting defaulted, which downstream reports echo
verbatim; model params are validated but kept as given.

Model params and the smote, lda and explainer sections are checked
against the frozen config dataclasses that the code consumes: keys and
types come from their fields, bounds from their ``__post_init__``, so each
bound is stated once and a value that passes here is accepted downstream.
``model_config`` is the one reader of model params, ``zoo.fit_model``'s too.
``read_value`` is the one typed reader of JSON values, in configs and
archives alike: an integer passes for a float, a bool is not a number.
Every field of those dataclasses is settable from JSON, and the section
echo carries each one, so no setting exists that a config cannot reach.
"""

from __future__ import annotations

import copy
import dataclasses
import json
import sys
import typing

from .errors import ConfigError, DataError
from .explain import LimeConfig, MorrisConfig
from .frame import check_null_threshold, check_train_fraction
from .lda import LdaConfig
from .resample import SmoteConfig
from .zoo import MODEL_FAMILIES, MODEL_NAMES

__all__ = ["METRIC_NAMES", "SCALER_MODES", "load_config", "model_config", "read_value", "resolve_config"]

METRIC_NAMES = ("accuracy", "sensitivity", "specificity", "g_mean", "h_measure", "f1")
SCALER_MODES = ("zscore", "minmax", "none")


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


def _as_int(v, path, minimum=None) -> int:
    if isinstance(v, bool) or not isinstance(v, int):
        _fail(path, "expected an integer")
    if minimum is not None and v < minimum:
        _fail(path, f"must be at least {minimum}")
    return v


def _as_number(v, path) -> float:
    if isinstance(v, bool) or not isinstance(v, (int, float)):
        _fail(path, "expected a number")
    if not abs(v) <= sys.float_info.max:  # NaN, Infinity or an int past float range
        _fail(path, "expected a finite number")
    return float(v)


def _as_string(v, path, choices=None) -> str:
    if not isinstance(v, str):
        _fail(path, "expected a string")
    if choices is not None and v not in choices:
        _fail(path, f"expected one of {', '.join(choices)}, got {v!r}")
    return v


def _bounded(path: str, fn, *args, **kwargs):
    """``fn(*args, **kwargs)``, with a DataError reported against `path`."""
    try:
        return fn(*args, **kwargs)
    except DataError as e:
        raise ConfigError(f"{path}: {e}") from None


_SCALARS = {bool: _as_bool, int: _as_int, float: _as_number, str: _as_string}


def read_value(hint, v, path: str):
    """JSON value `v` as type `hint`, or a ConfigError naming `path`."""
    options = typing.get_args(hint)
    if type(None) in options:
        if v is None:
            return None
        (hint,) = [t for t in options if t is not type(None)]
    if dataclasses.is_dataclass(hint):
        return _build(hint, v, path)
    if typing.get_origin(hint) is tuple:
        if not isinstance(v, list):
            _fail(path, "expected a list")
        return tuple(read_value(typing.get_args(hint)[0], x, f"{path}[{i}]") for i, x in enumerate(v))
    return _SCALARS[hint](v, path)


def _build(cls, raw, path: str, extra=()):
    """Construct dataclass `cls` from the JSON object `raw`.

    Absent fields keep their defaults. Keys in `extra` are allowed but left
    to the caller. Each given field is bounds-checked on its own first, so
    an error names its path.
    """
    raw = _as_object(raw, path)
    fields = [f.name for f in dataclasses.fields(cls)]
    _check_keys(raw, path, {*fields, *extra})
    hints = typing.get_type_hints(cls)
    kwargs = {name: read_value(hints[name], raw[name], f"{path}.{name}") for name in fields if name in raw}
    for name, value in kwargs.items():
        _bounded(f"{path}.{name}", cls, **{name: value})
    return _bounded(path, cls, **kwargs)


def model_config(name: str, params, path: str):
    """Model family `name`'s config, read from its JSON `params` at `path`."""
    if name not in MODEL_FAMILIES:
        raise ConfigError(f"unknown model name {name!r}")
    return _build(MODEL_FAMILIES[name][0], params, path)


# ---------------------------------------------------------------- resolve


def _section(cls, raw, path: str, **flags) -> dict:
    """The fields of config dataclass `cls`, plus the section's on/off
    `flags` (name=default), with every default filled."""
    out = dataclasses.asdict(_build(cls, raw, path, flags))
    out.update({name: _as_bool(raw.get(name, on), f"{path}.{name}") for name, on in flags.items()})
    return out


def _check_model_entry(entry, path: str) -> dict:
    entry = _as_object(entry, path)
    _check_keys(entry, path, {"name", "params"})
    if "name" not in entry:
        _fail(path, "missing required key 'name'")
    name = _as_string(entry["name"], f"{path}.name", choices=MODEL_NAMES)
    params = entry.get("params", {})
    model_config(name, params, f"{path}.params")
    return {"name": name, "params": copy.deepcopy(params)}


_TOP_KEYS = {
    "data",
    "target",
    "null_threshold",
    "scaler",
    "smote",
    "split",
    "lda",
    "model",
    "models",
    "metrics",
    "explain",
    "out_dir",
}


def resolve_config(raw: dict) -> dict:
    """Validate `raw` and return the resolved configuration.

    The result always carries both a single `model` and a `models` list
    (they agree when only one was given); every optional section setting
    is filled with its default so reports can echo the settings used. A
    model's params are validated against its config class and kept as
    given: the defaults of those left out are not filled in.
    """
    raw = _as_object(raw, "config")
    _check_keys(raw, "config", _TOP_KEYS)
    for key in ("data", "target"):
        if key not in raw:
            _fail("config", f"missing required key {key!r}")

    out: dict = {
        "data": _as_string(raw["data"], "config.data"),
        "target": _as_string(raw["target"], "config.target"),
        "null_threshold": _as_number(raw.get("null_threshold", 0.5), "config.null_threshold"),
        "scaler": _as_string(raw.get("scaler", "zscore"), "config.scaler", choices=SCALER_MODES),
        "out_dir": _as_string(raw.get("out_dir", "credo_out"), "config.out_dir"),
    }
    _bounded("config.null_threshold", check_null_threshold, out["null_threshold"])

    out["smote"] = _section(
        SmoteConfig, raw.get("smote", {}), "config.smote", enabled=True, before_split=False
    )

    split = _as_object(raw.get("split", {}), "config.split")
    _check_keys(split, "config.split", {"train_fraction", "seed"})
    fraction = _as_number(split.get("train_fraction", 0.8), "config.split.train_fraction")
    _bounded("config.split.train_fraction", check_train_fraction, fraction)
    out["split"] = {
        "train_fraction": fraction,
        "seed": _as_int(split.get("seed", 7), "config.split.seed", minimum=0),
    }

    out["lda"] = _section(LdaConfig, raw.get("lda", {}), "config.lda", enabled=False)

    if "model" not in raw and "models" not in raw:
        _fail("config", "missing required key 'model' (or a 'models' list)")
    models = []
    if "models" in raw:
        entries = raw["models"]
        if not isinstance(entries, list) or not entries:
            _fail("config.models", "expected a non-empty list of model entries")
        models = [_check_model_entry(e, f"config.models[{i}]") for i, e in enumerate(entries)]
    if "model" in raw:
        single = _check_model_entry(raw["model"], "config.model")
        out["model"] = single
        if not models:
            models = [single]
    else:
        out["model"] = copy.deepcopy(models[0])
    out["models"] = models

    metrics = raw.get("metrics", list(METRIC_NAMES))
    if not isinstance(metrics, list) or not metrics:
        _fail("config.metrics", "expected a non-empty list of metric names")
    seen = set()
    for i, m in enumerate(metrics):
        _as_string(m, f"config.metrics[{i}]", choices=METRIC_NAMES)
        if m in seen:
            _fail(f"config.metrics[{i}]", f"duplicate metric {m!r}")
        seen.add(m)
    out["metrics"] = list(metrics)

    explain = _as_object(raw.get("explain", {}), "config.explain")
    _check_keys(explain, "config.explain", {"lime_rows", "lime", "morris"})
    lime_rows = explain.get("lime_rows", [])
    if not isinstance(lime_rows, list):
        _fail("config.explain.lime_rows", "expected a list of integers")
    out["explain"] = {
        "lime_rows": [
            _as_int(r, f"config.explain.lime_rows[{i}]", minimum=0) for i, r in enumerate(lime_rows)
        ],
        "lime": _section(LimeConfig, explain.get("lime", {}), "config.explain.lime"),
        "morris": _section(
            MorrisConfig, explain.get("morris", {}), "config.explain.morris", enabled=False
        ),
    }
    return out
