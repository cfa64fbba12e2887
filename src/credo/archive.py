"""Flat-file model store.

An archive is a directory holding manifest.json (model family, schema,
schema hash, scalar params), shapes.json (array name -> dimensions), and
one <name>.f64 file per array: the raw C-order values as little-endian
IEEE-754 doubles. Every family in the zoo round-trips bit-exactly.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import numpy as np

from .baselines import ForestModel, GaussianNBModel, LogisticModel, TreeModel
from .errors import DataError
from .gbt import BoostedEnsemble, RegressionTree
from .lda import ProjectionLDA
from .neural import HybridXgDnn, Mlp

__all__ = ["FORMAT_VERSION", "load_model", "model_type_of", "save_model", "schema_hash"]

FORMAT_VERSION = 1


def schema_hash(feature_names, class_names, target_name: str) -> str:
    blob = json.dumps(
        {"features": list(feature_names), "classes": list(class_names), "target": target_name},
        sort_keys=True,
        separators=(",", ":"),
    )
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()[:16]


# ------------------------------------------------------- per-family codecs


def _pack_logreg(m: LogisticModel):
    arrays = {
        "weights": m.weights,
        "bias": m.bias,
        "loss_history": np.asarray(m.loss_history, dtype=float),
    }
    return arrays, {"converged": bool(m.converged), "n_iter": int(m.n_iter)}


def _unpack_logreg(arrays, params, schema):
    return LogisticModel(
        arrays["weights"],
        arrays["bias"],
        bool(params["converged"]),
        int(params["n_iter"]),
        arrays["loss_history"],
    )


def _pack_gnb(m: GaussianNBModel):
    return {"means": m.means, "variances": m.variances, "priors": m.priors}, {}


def _unpack_gnb(arrays, params, schema):
    return GaussianNBModel(arrays["means"], arrays["variances"], arrays["priors"])


_CART_KEYS = ("feature", "threshold", "left", "right", "counts")
_GBT_KEYS = ("feature", "threshold", "left", "right", "weight", "gain", "leaf_ordinal")
_INDEX_KEYS = {"feature", "left", "right", "leaf_ordinal"}


def _tree_fields(arrays: dict, keys, prefix: str = "", part: slice = slice(None)) -> dict:
    """One tree's node arrays: node and feature ids back to int64, the rest copied."""
    return {
        k: arrays[prefix + k][part].astype(np.int64) if k in _INDEX_KEYS else arrays[prefix + k][part].copy()
        for k in keys
    }


def _pack_trees(trees, keys) -> dict:
    """Concatenate each node array over the trees, with per-tree node counts."""
    arrays = {"tree_sizes": np.asarray([len(t.feature) for t in trees], dtype=float)}
    for key in keys:
        parts = [np.asarray(getattr(t, key), dtype=float) for t in trees]
        arrays[f"tree_{key}"] = np.concatenate(parts) if parts else np.empty(0)
    return arrays


def _unpack_trees(arrays, keys, make) -> tuple:
    offsets = np.concatenate([[0], np.cumsum(arrays["tree_sizes"].astype(np.int64))])
    return tuple(
        make(**_tree_fields(arrays, keys, "tree_", slice(a, b)))
        for a, b in zip(offsets[:-1], offsets[1:])
    )


def _pack_tree(m: TreeModel):
    return {k: getattr(m, k) for k in _CART_KEYS}, {}


def _unpack_tree(arrays, params, schema):
    return TreeModel(
        **_tree_fields(arrays, _CART_KEYS),
        n_classes=len(schema["classes"]),
        n_features=len(schema["features"]),
    )


def _pack_forest(m: ForestModel):
    return _pack_trees(m.trees, _CART_KEYS), {}


def _unpack_forest(arrays, params, schema):
    n_classes, n_features = len(schema["classes"]), len(schema["features"])
    trees = _unpack_trees(
        arrays, _CART_KEYS, lambda **f: TreeModel(**f, n_classes=n_classes, n_features=n_features)
    )
    return ForestModel(trees, n_classes, n_features)


def _pack_gbt(m: BoostedEnsemble):
    arrays = {**_pack_trees(m.trees, _GBT_KEYS), "base_score": m.base_score}
    params = {
        "rounds": m.rounds,
        "learning_rate": m.learning_rate,
        "lam": m.lam,
        "gamma": m.gamma,
        "min_child_weight": m.min_child_weight,
    }
    return arrays, params


def _unpack_gbt(arrays, params, schema):
    return BoostedEnsemble(
        n_classes=len(schema["classes"]),
        n_features=len(schema["features"]),
        rounds=int(params["rounds"]),
        learning_rate=float(params["learning_rate"]),
        lam=float(params["lam"]),
        gamma=float(params["gamma"]),
        min_child_weight=float(params["min_child_weight"]),
        base_score=arrays["base_score"].copy(),
        trees=_unpack_trees(arrays, _GBT_KEYS, RegressionTree),
    )


def _pack_mlp(m: Mlp):
    arrays = {}
    for i, (W, b) in enumerate(zip(m.weights, m.biases)):
        arrays[f"w{i}"] = W
        arrays[f"b{i}"] = b
    params = {
        "layer_sizes": [int(s) for s in m.layer_sizes],
        "final_loss": None if m.final_loss is None else float(m.final_loss),
    }
    return arrays, params


def _unpack_mlp(arrays, params, schema):
    sizes = tuple(int(s) for s in params["layer_sizes"])
    k = len(sizes) - 1
    weights = tuple(arrays[f"w{i}"] for i in range(k))
    biases = tuple(arrays[f"b{i}"] for i in range(k))
    loss = params["final_loss"]
    return Mlp(sizes, weights, biases, None if loss is None else float(loss))


def _pack_lda(p: ProjectionLDA):
    arrays = {
        "class_means": p.class_means,
        "grand_mean": p.grand_mean,
        "within_scatter": p.within_scatter,
        "between_scatter": p.between_scatter,
        "components": p.components,
        "eigenvalues": p.eigenvalues,
        "class_priors": p.class_priors,
    }
    params = {
        "ridge": float(p.ridge),
        "n_train": int(p.n_train),
        "n_requested": int(p.n_requested),
    }
    return arrays, params


def _unpack_lda(arrays, params, schema):
    return ProjectionLDA(
        feature_names=tuple(schema["features"]),
        class_means=arrays["class_means"],
        grand_mean=arrays["grand_mean"],
        within_scatter=arrays["within_scatter"],
        between_scatter=arrays["between_scatter"],
        components=arrays["components"],
        eigenvalues=arrays["eigenvalues"],
        class_priors=arrays["class_priors"],
        ridge=float(params["ridge"]),
        n_train=int(params["n_train"]),
        n_requested=int(params["n_requested"]),
    )


def _pack_xgdnn(m: HybridXgDnn):
    booster_arrays, booster_params = _pack_gbt(m.booster)
    head_arrays, head_params = _pack_mlp(m.head)
    arrays = {f"booster_{k}": v for k, v in booster_arrays.items()}
    arrays.update({f"head_{k}": v for k, v in head_arrays.items()})
    params = {
        "feature_mode": m.feature_mode,
        "booster": booster_params,
        "head": head_params,
    }
    return arrays, params


def _unpack_xgdnn(arrays, params, schema):
    booster_arrays = {k[len("booster_"):]: v for k, v in arrays.items() if k.startswith("booster_")}
    head_arrays = {k[len("head_"):]: v for k, v in arrays.items() if k.startswith("head_")}
    booster = _unpack_gbt(booster_arrays, params["booster"], schema)
    head = _unpack_mlp(head_arrays, params["head"], schema)
    return HybridXgDnn(booster, params["feature_mode"], head)


# family name -> (model class, pack, unpack)
_CODECS = {
    "logreg": (LogisticModel, _pack_logreg, _unpack_logreg),
    "gnb": (GaussianNBModel, _pack_gnb, _unpack_gnb),
    "tree": (TreeModel, _pack_tree, _unpack_tree),
    "forest": (ForestModel, _pack_forest, _unpack_forest),
    "gbt": (BoostedEnsemble, _pack_gbt, _unpack_gbt),
    "mlp": (Mlp, _pack_mlp, _unpack_mlp),
    "lda": (ProjectionLDA, _pack_lda, _unpack_lda),
    "xgdnn": (HybridXgDnn, _pack_xgdnn, _unpack_xgdnn),
}


def model_type_of(model) -> str:
    for name, (cls, _, _) in _CODECS.items():
        if isinstance(model, cls):
            return name
    raise DataError(f"cannot archive a {type(model).__name__}")


# --------------------------------------------------------------- save/load


def save_model(model, dir_path, feature_names, class_names, target_name: str = "target") -> dict:
    """Write the archive directory; returns the manifest that was stored."""
    mtype = model_type_of(model)
    _, pack, _ = _CODECS[mtype]
    arrays, params = pack(model)

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
            "features": list(feature_names),
            "classes": list(class_names),
            "target": target_name,
        },
        "schema_hash": schema_hash(feature_names, class_names, target_name),
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

    if manifest.get("format_version") != FORMAT_VERSION:
        raise DataError(f"unsupported archive format_version {manifest.get('format_version')!r}")
    mtype = manifest.get("model")
    if mtype not in _CODECS:
        raise DataError(f"unknown archived model type {mtype!r}")

    arrays = {}
    for name, shape in shapes.items():
        path = root / f"{name}.f64"
        if not path.is_file():
            raise DataError(f"archive is missing array file {name}.f64")
        flat = np.frombuffer(path.read_bytes(), dtype="<f8")
        expected = int(np.prod(shape)) if shape else 1
        if flat.size != expected:
            raise DataError(f"array {name} holds {flat.size} values, shape {shape} needs {expected}")
        arrays[name] = flat.reshape(shape).astype(float)

    _, _, unpack = _CODECS[mtype]
    return unpack(arrays, manifest["params"], manifest["schema"]), manifest
