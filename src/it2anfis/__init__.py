"""Interval type-2 neuro-fuzzy regression with explainable intervals.

Public surface: the pipeline, from the rule-base core (types plus
``predict_arrays``, the one row-level inference API) and dataset
plumbing through build, train, explain, evaluate, persistence and the
sweep.  Training steps and initializer helpers live in their modules.
"""

from .core import Mode, RuleBase, predict_arrays
from .dataset import (Dataset, FeatureScaler, RawTable, SyntheticSpec,
                      TargetScaler, generate_synthetic, inverse_target,
                      load_csv, normalize_and_split)
from .explainer import (FeatureUncertainty, RuleUncertainty,
                        UncertaintyReport, explain_instance, explain_model,
                        export_rules_text)
from .initializer import InitConfig, build_rulebase
from .metrics import MetricSet, evaluate
from .modelio import ModelFormatError, load_model, save_model
from .sweep import SweepConfig, sweep
from .trainer import TrainConfig, TrainState, TrainingDiverged, train

__version__ = "0.1.0"

__all__ = [
    "Dataset", "FeatureScaler", "FeatureUncertainty", "InitConfig",
    "MetricSet", "Mode", "ModelFormatError", "RawTable", "RuleBase",
    "RuleUncertainty", "SweepConfig", "SyntheticSpec", "TargetScaler",
    "TrainConfig", "TrainState", "TrainingDiverged", "UncertaintyReport",
    "build_rulebase", "evaluate", "explain_instance", "explain_model",
    "export_rules_text", "generate_synthetic", "inverse_target",
    "load_csv", "load_model", "normalize_and_split", "predict_arrays",
    "save_model", "sweep", "train",
]
