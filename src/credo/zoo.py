"""One fitting interface over the eight model families.

Every fitted object is a ``baselines.Classifier``; the ``lda`` model is
the fitted discriminant projection itself. Each family's parameters form a
frozen config dataclass, which ``fit_model`` builds from JSON params.
"""

from __future__ import annotations

from .baselines import (
    ForestConfig,
    GnbConfig,
    LogregConfig,
    TreeConfig,
    fit_forest,
    fit_gnb,
    fit_logreg,
    fit_tree,
)
from .errors import ConfigError
from .frame import Frame
from .gbt import GbtConfig, fit_gbt
from .lda import LdaConfig, ProjectionLDA, fit_lda
from .neural import MlpConfig, XgdnnConfig, fit_hybrid, fit_mlp

__all__ = ["MODEL_FAMILIES", "MODEL_NAMES", "fit_model"]


def _fit_lda(train: Frame, cfg: LdaConfig) -> ProjectionLDA:
    return fit_lda(train, cfg.n_components, cfg.ridge)


def _fit_booster(train: Frame, cfg: GbtConfig, boosters: dict | None = None):
    """The booster for `cfg` on `train`. `boosters` memoizes fits on this
    one `train` by config; a failed fit is not stored, so the next caller
    with the same config fails the same way."""
    if boosters is None:
        boosters = {}
    if cfg not in boosters:
        boosters[cfg] = fit_gbt(train, cfg)
    return boosters[cfg]


def _fit_xgdnn(train: Frame, cfg: XgdnnConfig, boosters: dict | None = None):
    booster = _fit_booster(train, cfg.gbt, boosters)
    return fit_hybrid(train, cfg.gbt, cfg.mlp, cfg.feature_mode, booster=booster)


# model name -> (config class, fit function name). The fit function is looked
# up in this module at call time, so a wrapper installed on it is honoured.
MODEL_FAMILIES = {
    "logreg": (LogregConfig, "fit_logreg"),
    "gnb": (GnbConfig, "fit_gnb"),
    "tree": (TreeConfig, "fit_tree"),
    "forest": (ForestConfig, "fit_forest"),
    "gbt": (GbtConfig, "_fit_booster"),
    "mlp": (MlpConfig, "fit_mlp"),
    "lda": (LdaConfig, "_fit_lda"),
    "xgdnn": (XgdnnConfig, "_fit_xgdnn"),
}
MODEL_NAMES = tuple(MODEL_FAMILIES)


def fit_model(name: str, train: Frame, params: dict, boosters: dict | None = None):
    """Fit the named model on `train` with its family's JSON params.

    `boosters` is a memo of boosters fitted on this same `train`, keyed by
    `GbtConfig`; the gbt and xgdnn families share it, so a booster is fitted
    once per config. Without it every fit starts afresh.
    """
    if name not in MODEL_FAMILIES:
        raise ConfigError(f"unknown model name {name!r}")
    config_class, fit_name = MODEL_FAMILIES[name]
    fit, cfg = globals()[fit_name], config_class(**params)
    return fit(train, cfg, boosters) if name in ("gbt", "xgdnn") else fit(train, cfg)
