"""Interval type-2 neuro-fuzzy regression with explainable intervals.

Public surface: the rule-base core (types plus ``predict_arrays``, the
one row-level inference API), dataset plumbing, the initializer, the
trainer, uncertainty explanation, metrics, persistence, and the
benchmark sweep.
"""

from .core import Mode, RuleBase, predict_arrays
from .dataset import (Dataset, FeatureScaler, RawTable, SyntheticSpec,
                      TargetScaler, generate_synthetic, inverse_target,
                      load_csv, normalize_and_split)
from .explainer import (FeatureUncertainty, RuleUncertainty,
                        UncertaintyReport, explain_instance, explain_model,
                        export_rules_text, fou_area)
from .initializer import (InitConfig, build_rulebase, lhs_centers,
                          partition_width)
from .metrics import MetricSet, evaluate
from .modelio import ModelFormatError, load_model, save_model
from .sweep import SweepConfig, run_seed, sweep
from .trainer import (TrainConfig, TrainState, TrainingDiverged,
                      adapt_learning_rates, antecedent_gradients,
                      apply_antecedent_update, apply_consequent_update,
                      consequent_gradients, enforce_constraints, train)

__version__ = "0.1.0"

__all__ = [
    "Dataset", "FeatureScaler", "FeatureUncertainty", "InitConfig",
    "MetricSet", "Mode", "ModelFormatError", "RawTable", "RuleBase",
    "RuleUncertainty", "SweepConfig", "SyntheticSpec", "TargetScaler",
    "TrainConfig", "TrainState", "TrainingDiverged", "UncertaintyReport",
    "adapt_learning_rates", "antecedent_gradients",
    "apply_antecedent_update", "apply_consequent_update", "build_rulebase",
    "consequent_gradients", "enforce_constraints", "evaluate",
    "explain_instance", "explain_model", "export_rules_text", "fou_area",
    "generate_synthetic", "inverse_target", "lhs_centers", "load_csv",
    "load_model", "normalize_and_split", "partition_width",
    "predict_arrays", "run_seed", "save_model", "sweep", "train",
]
