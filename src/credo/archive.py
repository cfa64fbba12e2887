"""Flat-file model store.

An archive is a directory holding manifest.json (model family, schema,
schema hash, scalar params), shapes.json (array name -> its list of
non-negative sizes; a name holds no ``/``, ``\\`` or ``..``), and
one <name>.f64 file per array: the raw C-order values as little-endian
IEEE-754 doubles. Every family in the zoo round-trips bit-exactly.

A family's frozen model dataclass is its archive format: each field is
stored by one rule, chosen by its name and type hint.

- ``n_classes`` and ``feature_names`` come from the manifest schema.
- An ``np.ndarray`` field is one ``<name>.f64`` file.
- A tuple of trees is ``tree_sizes`` (nodes per tree) plus one
  ``tree_<key>`` file per node array, concatenated over the trees.
- A tuple of arrays is one file per item, named by the field's initial
  and the item's index (``w0``, ``b0``, ...).
- A nested model is stored by these same rules, its field name prefixing
  its files (``booster_tree_weight``) and keying its params.
- Every other field is a JSON param, read back by its type hint through
  ``config.read_value``, the one typed reader for configs and archives.

Node and feature ids (``feature``, ``left``, ``right``, ``leaf_ordinal``)
are read back as int64, and every loaded tree must be the preorder form
that training writes. Every stored value, array or param, must be finite,
except that a CART leaf's threshold may be NaN. A new family needs no
archive code, only an entry in ``zoo.MODEL_FAMILIES``, whose key the
manifest's "model" names.
"""

from __future__ import annotations

import dataclasses
import hashlib
import itertools
import json
import math
import typing
from functools import cache
from pathlib import Path

import numpy as np

from .config import read_value
from .errors import ConfigError, DataError
from .trees import FlatTree
from .zoo import MODEL_FAMILIES

__all__ = ["FORMAT_VERSION", "load_model", "model_type_of", "save_model", "schema_hash"]

FORMAT_VERSION = 1


def schema_hash(feature_names, class_names, target_name: str) -> str:
    blob = json.dumps(
        {"features": list(feature_names), "classes": list(class_names), "target": target_name},
        sort_keys=True,
        separators=(",", ":"),
    )
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()[:16]


# ------------------------------------------------------------ field rules

_SCHEMA_KEYS = {"features": tuple[str, ...], "classes": tuple[str, ...], "target": str}
_SCHEMA_FIELDS = ("n_classes", "feature_names")  # model fields that the manifest schema gives
_INDEX_KEYS = {"feature", "left", "right", "leaf_ordinal"}


@cache
def _layout(cls) -> tuple:
    """(name, rule, type) per field of `cls`, in order; the type is the tree
    class of a tuple of trees, else the field's type hint."""
    hints = typing.get_type_hints(cls)
    layout = []
    for f in dataclasses.fields(cls):
        hint = hints[f.name]
        item = typing.get_args(hint)[0] if typing.get_origin(hint) is tuple else None
        if f.name in _SCHEMA_FIELDS:
            rule = "schema"
        elif hint is np.ndarray:
            rule = "array"
        elif item is np.ndarray:
            rule = "arrays"
        elif dataclasses.is_dataclass(item):
            rule, hint = "trees", item
        elif dataclasses.is_dataclass(hint):
            rule = "model"
        else:
            rule = "param"
        layout.append((f.name, rule, hint))
    return tuple(layout)


def _pack(model) -> tuple[dict, dict]:
    """The (arrays, params) a model is stored as."""
    arrays, params = {}, {}
    for name, rule, hint in _layout(type(model)):
        value = getattr(model, name)
        if rule == "array":
            arrays[name] = value
        elif rule == "arrays":
            arrays.update((f"{name[0]}{i}", a) for i, a in enumerate(value))
        elif rule == "trees":
            arrays["tree_sizes"] = np.asarray([len(t.feature) for t in value], dtype=float)
            for key, tree_rule, _ in _layout(hint):
                if tree_rule == "array":
                    parts = [np.asarray(getattr(t, key), dtype=float) for t in value]
                    arrays[f"tree_{key}"] = np.concatenate(parts) if parts else np.empty(0)
        elif rule == "model":
            inner, params[name] = _pack(value)
            arrays.update((f"{name}_{k}", a) for k, a in inner.items())
        elif rule == "param":
            params[name] = list(value) if isinstance(value, tuple) else value
    return arrays, params


def _entry(table, key: str, what: str):
    try:
        return table[key]
    except (KeyError, TypeError):
        raise DataError(f"archive is missing {what} {key}") from None


def _column(arrays: dict, key: str, name: str) -> np.ndarray:
    """Array `key`, as int64 if field `name` holds node or feature ids."""
    dtype = np.int64 if name in _INDEX_KEYS else np.float64
    return _entry(arrays, key, "array").astype(dtype, copy=False)


def _read(hint, value, path: str):
    """A manifest value as JSON type `hint`, or a DataError naming its dotted `path`."""
    try:
        return read_value(hint, value, path)
    except ConfigError as e:
        raise DataError(f"archive {e}") from None


def _check_nodes(feature, threshold, left, right, sizes, n_features: int, leaf_ordinal=None) -> None:
    """Raise unless the node arrays hold trees of `sizes` nodes, end to end,
    in the preorder form training writes: every inner node splits on a
    feature in [0, n_features) at a threshold that is not NaN and has two
    later nodes of its own tree as children, and every leaf's feature and
    children are -1. A walk of such a tree reads only its row's cells and
    ends. A `leaf_ordinal`, where given, must be each leaf's depth-first
    rank among its tree's leaves and -1 at inner nodes."""
    sizes = np.asarray(sizes, dtype=np.int64)
    starts = np.cumsum(sizes) - sizes
    ok = (sizes >= 1).all() and len(feature) == len(threshold) == len(left) == len(right) == sizes.sum()
    if ok:
        size = np.repeat(sizes, sizes)
        node = np.arange(len(feature)) - np.repeat(starts, sizes)
        inner = (feature < n_features) & (node < left) & (node < right) & (np.maximum(left, right) < size)
        ok = np.where(feature >= 0, inner, (feature == -1) & (left == -1) & (right == -1)).all()
    if not ok:
        raise DataError(f"archived tree nodes do not form a preorder tree over {n_features} features")
    if np.isnan(threshold[feature >= 0]).any():
        raise DataError("archived tree has a NaN threshold at an inner node")
    if leaf_ordinal is not None:
        leaves = np.cumsum(feature < 0)
        before = np.append(0, leaves)[starts]  # leaves of the earlier trees
        if not np.array_equal(leaf_ordinal, np.where(feature < 0, leaves - 1 - np.repeat(before, sizes), -1)):
            raise DataError("archived leaf ordinals are not each leaf's depth-first rank in its tree")


def _unpack_trees(tree_cls, arrays: dict, given: dict, prefix: str) -> tuple:
    sizes = _entry(arrays, f"{prefix}tree_sizes", "array").astype(np.int64)
    ends = np.cumsum(np.append(0, sizes))
    columns = {
        name: _column(arrays, f"{prefix}tree_{name}", name)
        for name, rule, _ in _layout(tree_cls)
        if rule == "array"
    }
    if any(len(c) != ends[-1] for c in columns.values()):
        raise DataError(f"archive arrays {prefix}tree_* disagree with tree_sizes ({ends[-1]} nodes)")
    _check_nodes(
        columns["feature"], columns["threshold"], columns["left"], columns["right"], sizes,
        len(given["feature_names"]), columns.get("leaf_ordinal"),
    )
    return tuple(
        _unpack(tree_cls, {name: c[a:b] for name, c in columns.items()}, {}, given)
        for a, b in zip(ends[:-1], ends[1:])
    )


def _unpack(cls, arrays: dict, params: dict, given: dict, prefix: str = "", path: str = "params"):
    """Rebuild a `cls` from its arrays (file names under `prefix`), its
    params (at the manifest's dotted `path`) and the `given` schema fields."""
    kwargs = {}
    for name, rule, hint in _layout(cls):
        if rule == "schema":
            kwargs[name] = given[name]
        elif rule == "array":
            kwargs[name] = _column(arrays, prefix + name, name)
        elif rule == "arrays":
            keys = (f"{prefix}{name[0]}{i}" for i in itertools.count())
            kwargs[name] = tuple(arrays[k] for k in itertools.takewhile(arrays.__contains__, keys))
        elif rule == "trees":
            kwargs[name] = _unpack_trees(hint, arrays, given, prefix)
        elif rule == "model":
            inner = _entry(params, name, "param")
            kwargs[name] = _unpack(hint, arrays, inner, given, f"{prefix}{name}_", f"{path}.{name}")
        else:
            kwargs[name] = _read(hint, _entry(params, name, "param"), f"{path}.{name}")
    return cls(**kwargs)


def model_type_of(model) -> str:
    for name, (*_, cls) in MODEL_FAMILIES.items():
        if isinstance(model, cls):
            return name
    raise DataError(f"cannot archive a {type(model).__name__}")


# --------------------------------------------------------------- save/load


def save_model(model, dir_path, class_names, target_name: str = "target") -> dict:
    """Write the archive directory; returns the manifest that was stored.
    The schema's features are the model's ``feature_names``."""
    mtype = model_type_of(model)
    arrays, params = _pack(model)

    out = Path(dir_path)
    out.mkdir(parents=True, exist_ok=True)
    shapes = {}
    for name, arr in arrays.items():
        a = np.ascontiguousarray(np.asarray(arr, dtype=float))
        (out / f"{name}.f64").write_bytes(a.astype("<f8").tobytes())
        shapes[name] = list(a.shape)
    (out / "shapes.json").write_text(json.dumps(shapes, indent=2, sort_keys=True) + "\n")

    manifest = {
        "format_version": FORMAT_VERSION,
        "model": mtype,
        "schema": {
            "features": list(model.feature_names),
            "classes": list(class_names),
            "target": target_name,
        },
        "schema_hash": schema_hash(model.feature_names, class_names, target_name),
        "params": params,
    }
    (out / "manifest.json").write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n")
    return manifest


def load_model(dir_path):
    """Rebuild (model, manifest) from an archive directory."""
    root = Path(dir_path)
    manifest_path = root / "manifest.json"
    if not manifest_path.is_file():
        raise DataError(f"no manifest.json under {dir_path}")
    try:
        manifest = json.loads(manifest_path.read_text())
        shapes = json.loads((root / "shapes.json").read_text())
    except (OSError, json.JSONDecodeError) as e:
        raise DataError(f"unreadable archive under {dir_path}: {e}") from e
    if not (isinstance(manifest, dict) and isinstance(shapes, dict)):
        raise DataError(f"archive under {dir_path}: manifest.json and shapes.json must hold JSON objects")

    if _read(int, manifest.get("format_version"), "format_version") != FORMAT_VERSION:
        raise DataError(f"unsupported archive format_version {manifest['format_version']!r}")
    mtype = manifest.get("model")
    if mtype not in tuple(MODEL_FAMILIES):  # compared by ==, so a JSON list or object is unknown too
        raise DataError(f"unknown archived model type {mtype!r}")

    arrays = {}
    for name, shape in shapes.items():
        if any(part in name for part in ("/", "\\", "..")):
            raise DataError(f"archive array name {name!r} is not a plain file name")
        if not (isinstance(shape, list) and all(type(n) is int and n >= 0 for n in shape)):
            raise DataError(f"array {name} has shape {shape!r}, not a list of sizes")
        path = root / f"{name}.f64"
        if not path.is_file():
            raise DataError(f"archive is missing array file {name}.f64")
        flat = np.frombuffer(path.read_bytes(), dtype="<f8")
        expected = math.prod(shape)
        if flat.size != expected:
            raise DataError(f"array {name} holds {flat.size} values, shape {shape} needs {expected}")
        # NaN marks a CART leaf's threshold; _check_nodes refuses it at an inner node
        if not (np.isfinite(flat) | np.isnan(flat) & name.endswith("threshold")).all():
            raise DataError(f"array {name} holds a non-finite value")
        arrays[name] = flat.reshape(shape).astype(float)

    stored = _entry(manifest, "schema", "manifest key")
    schema = {k: _read(t, _entry(stored, k, "schema key"), f"schema.{k}") for k, t in _SCHEMA_KEYS.items()}
    if schema_hash(schema["features"], schema["classes"], schema["target"]) != manifest.get("schema_hash"):
        raise DataError("archive schema_hash does not match its schema")
    n_features, n_classes = len(schema["features"]), len(schema["classes"])
    given = {"n_classes": n_classes, "feature_names": schema["features"]}
    model = _unpack(MODEL_FAMILIES[mtype][2], arrays, manifest.get("params", {}), given)
    if isinstance(model, FlatTree):
        _check_nodes(
            model.feature, model.threshold, model.left, model.right, [len(model.feature)], n_features
        )
    if (model.n_features, model.n_classes) != (n_features, n_classes):
        raise DataError(
            f"archived {mtype} has {model.n_features} features and {model.n_classes} "
            f"classes, its schema {n_features} and {n_classes}"
        )
    return model, manifest
