"""One fitting interface over the eight model families.

Every fitted object is a ``baselines.Classifier``; the ``lda`` model is
the fitted discriminant projection itself. ``fit_model`` reads a family's
JSON params into its frozen config with ``config.model_config``, the reader
``resolve_config`` uses, then calls ``fit_<family>(train, cfg)``; a config
of None means the family's defaults.
"""

from __future__ import annotations

from .baselines import (
    ForestConfig,
    ForestModel,
    GaussianNBModel,
    GnbConfig,
    LogisticModel,
    LogregConfig,
    TreeConfig,
    TreeModel,
    fit_forest,
    fit_gnb,
    fit_logreg,
    fit_tree,
)
from .frame import Frame
from .gbt import BoostedEnsemble, GbtConfig, fit_gbt
from .lda import LdaConfig, ProjectionLDA, fit_lda
from .neural import HybridXgDnn, Mlp, MlpConfig, XgdnnConfig, fit_hybrid, fit_mlp

__all__ = ["MODEL_FAMILIES", "MODEL_NAMES", "fit_model"]

# model name -> (config class, fit function name, model class). The fit
# function is looked up in this module at call time, so a wrapper installed
# on it is honoured. The archive names a family by its key here.
MODEL_FAMILIES = {
    "logreg": (LogregConfig, "fit_logreg", LogisticModel),
    "gnb": (GnbConfig, "fit_gnb", GaussianNBModel),
    "tree": (TreeConfig, "fit_tree", TreeModel),
    "forest": (ForestConfig, "fit_forest", ForestModel),
    "gbt": (GbtConfig, "fit_gbt", BoostedEnsemble),
    "mlp": (MlpConfig, "fit_mlp", Mlp),
    "lda": (LdaConfig, "fit_lda", ProjectionLDA),
    "xgdnn": (XgdnnConfig, "fit_hybrid", HybridXgDnn),
}
MODEL_NAMES = tuple(MODEL_FAMILIES)


def fit_model(name: str, train: Frame, params: dict, boosters: dict | None = None):
    """Fit the named model on `train` with its family's JSON params.

    `boosters` is a memo of boosters fitted on this same `train`, keyed by
    `GbtConfig`; the gbt and xgdnn families share it, so a booster is fitted
    once per config. A failed fit is not stored, so the next caller with the
    same config fails the same way. Without a memo every fit starts afresh.
    """
    from .config import model_config  # here, not at module level: config imports this module
    cfg, fit = model_config(name, params, "params"), globals()[MODEL_FAMILIES[name][1]]
    if name not in ("gbt", "xgdnn"):
        return fit(train, cfg)
    boosters = {} if boosters is None else boosters
    gbt_cfg = cfg if name == "gbt" else cfg.gbt
    if gbt_cfg not in boosters:
        boosters[gbt_cfg] = fit_gbt(train, gbt_cfg)
    return boosters[cfg] if name == "gbt" else fit(train, cfg, booster=boosters[gbt_cfg])
