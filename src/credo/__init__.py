"""credo: a transparent multi-class credit-scoring toolkit.

Pipeline pieces: supervised preprocessing (null filtering, imputation,
encoding, scaling, stratified splitting), SMOTE class balancing, a linear
discriminant reducer/classifier, a model zoo spanning linear, Bayes, tree,
forest, boosted-tree and neural families, six evaluation metrics, and local
(perturbation surrogate) plus global (elementary effects) explanations.
"""

from .archive import load_model, save_model
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
from .config import METRIC_NAMES, SCALER_MODES, load_config, resolve_config
from .errors import (
    ConfigError,
    CredoError,
    CredoWarning,
    DataError,
    NumericError,
    PipelineError,
)
from .explain import (
    LimeConfig,
    LimeExplanation,
    MorrisConfig,
    MorrisScreening,
    lime_explain,
    morris_screen,
    rank_features,
)
from .frame import (
    Frame,
    Table,
    apply_scaler,
    drop_sparse_features,
    encode,
    fit_scaler,
    impute,
    load_csv,
    numeric_frame,
    split,
)
from .gbt import GbtConfig, fit_gbt
from .lda import LdaConfig, ProjectionLDA, fit_lda, transform_lda
from .metrics import MetricReport, evaluate, h_measure
from .neural import MlpConfig, XgdnnConfig, fit_hybrid, fit_mlp
from .pipeline import ComparisonTable, RunOutcome, cmd_compare, cmd_explain, cmd_run, run_pipeline
from .resample import SmoteConfig, smote
from .synth import SynthSpec, write_synthetic
from .zoo import MODEL_NAMES, fit_model

__version__ = "0.1.0"

__all__ = [
    "METRIC_NAMES",
    "MODEL_NAMES",
    "SCALER_MODES",
    "ComparisonTable",
    "ConfigError",
    "CredoError",
    "CredoWarning",
    "DataError",
    "ForestConfig",
    "Frame",
    "GbtConfig",
    "GnbConfig",
    "LdaConfig",
    "LimeConfig",
    "LimeExplanation",
    "LogregConfig",
    "MetricReport",
    "MlpConfig",
    "MorrisConfig",
    "MorrisScreening",
    "NumericError",
    "PipelineError",
    "ProjectionLDA",
    "RunOutcome",
    "SmoteConfig",
    "SynthSpec",
    "Table",
    "TreeConfig",
    "XgdnnConfig",
    "apply_scaler",
    "cmd_compare",
    "cmd_explain",
    "cmd_run",
    "drop_sparse_features",
    "encode",
    "evaluate",
    "fit_forest",
    "fit_gbt",
    "fit_gnb",
    "fit_hybrid",
    "fit_lda",
    "fit_logreg",
    "fit_mlp",
    "fit_model",
    "fit_scaler",
    "fit_tree",
    "h_measure",
    "impute",
    "lime_explain",
    "load_config",
    "load_csv",
    "load_model",
    "morris_screen",
    "numeric_frame",
    "rank_features",
    "resolve_config",
    "run_pipeline",
    "save_model",
    "smote",
    "split",
    "transform_lda",
    "write_synthetic",
    "__version__",
]
