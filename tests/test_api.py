"""The package's public surface: what ``it2anfis`` exports, and no more."""

from __future__ import annotations

import it2anfis
from it2anfis import core

EXPECTED = [
    "Dataset", "FeatureScaler", "FeatureUncertainty", "InitConfig",
    "MetricSet", "Mode", "ModelFormatError", "RawTable", "RuleBase",
    "RuleUncertainty", "SweepConfig", "SyntheticSpec", "TargetScaler",
    "TrainConfig", "TrainState", "TrainingDiverged", "UncertaintyReport",
    "build_rulebase", "evaluate", "explain_instance", "explain_model",
    "export_rules_text", "generate_synthetic", "inverse_target",
    "load_csv", "load_model", "normalize_and_split", "predict_arrays",
    "save_model", "sweep", "train",
]


def test_all_is_the_expected_list():
    assert it2anfis.__all__ == EXPECTED


def test_every_exported_name_resolves():
    for name in it2anfis.__all__:
        assert getattr(it2anfis, name) is not None, name


def test_scalar_object_api_is_gone():
    # the scalar membership reference lives in the tests (conftest)
    for name in ("IT2Antecedent", "membership_bounds"):
        assert not hasattr(it2anfis, name)
        assert not hasattr(core, name)
    assert not hasattr(core.RuleBase, "antecedent")
