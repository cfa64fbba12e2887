"""One fitting interface over the eight model families.

Every fitted object satisfies the same contract: ``n_classes``,
``n_features``, row-stochastic ``predict_proba``, and ``predict`` as its
argmax. The discriminant projection gets a thin adapter so it can stand
in the zoo next to the other classifiers. Each family's parameters form a
frozen config dataclass, which ``fit_model`` builds from JSON params.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

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
from .frame import Frame, numeric_frame
from .gbt import GbtConfig, fit_gbt
from .lda import LdaConfig, ProjectionLDA, fit_lda, predict_lda
from .neural import MlpConfig, XgdnnConfig, fit_hybrid, fit_mlp

__all__ = ["MODEL_FAMILIES", "MODEL_NAMES", "LdaClassifier", "fit_model"]


@dataclass(frozen=True)
class LdaClassifier:
    """Gaussian discriminant classifier over a fitted projection."""

    projection: ProjectionLDA

    @property
    def n_features(self) -> int:
        return len(self.projection.feature_names)

    @property
    def n_classes(self) -> int:
        return len(self.projection.class_priors)

    def predict_proba(self, X) -> np.ndarray:
        X = np.asarray(X, dtype=float)
        f = numeric_frame(X, names=list(self.projection.feature_names))
        return predict_lda(self.projection, f)

    def predict(self, X) -> np.ndarray:
        return np.argmax(self.predict_proba(X), axis=1)


def _fit_lda_classifier(train: Frame, cfg: LdaConfig) -> LdaClassifier:
    return LdaClassifier(fit_lda(train, cfg.n_components, cfg.ridge))


def _fit_xgdnn(train: Frame, cfg: XgdnnConfig):
    return fit_hybrid(train, cfg.gbt, cfg.mlp, cfg.feature_mode)


# model name -> (config class, fit function name). The fit function is looked
# up in this module at call time, so a wrapper installed on it is honoured.
MODEL_FAMILIES = {
    "logreg": (LogregConfig, "fit_logreg"),
    "gnb": (GnbConfig, "fit_gnb"),
    "tree": (TreeConfig, "fit_tree"),
    "forest": (ForestConfig, "fit_forest"),
    "gbt": (GbtConfig, "fit_gbt"),
    "mlp": (MlpConfig, "fit_mlp"),
    "lda": (LdaConfig, "_fit_lda_classifier"),
    "xgdnn": (XgdnnConfig, "_fit_xgdnn"),
}
MODEL_NAMES = tuple(MODEL_FAMILIES)


def fit_model(name: str, train: Frame, params: dict):
    """Fit the named model on `train` with its family's JSON params."""
    if name not in MODEL_FAMILIES:
        raise ConfigError(f"unknown model name {name!r}")
    config_class, fit = MODEL_FAMILIES[name]
    return globals()[fit](train, config_class(**params))
