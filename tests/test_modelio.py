"""Model persistence: exact round-trips and schema validation."""

from __future__ import annotations

import json

import numpy as np
import pytest

from it2anfis.core import Mode, predict_arrays
from it2anfis.modelio import (FORMAT_VERSION, ModelFormatError, load_model,
                              save_model)

from conftest import random_rulebase


def _save(tmp_path, rb, scalers, provenance=None):
    features, target = scalers
    path = tmp_path / "model.json"
    save_model(rb, path, features, target, provenance=provenance)
    return path


class TestRoundTrip:
    @pytest.mark.parametrize("mode", list(Mode))
    def test_parameters_bit_exact(self, tmp_path, rng, toy_scalers,
                                  mode):
        rb = random_rulebase(rng, 4, 2, mode=mode, q=0.37)
        path = _save(tmp_path, rb, toy_scalers)
        loaded, features, target, _ = load_model(path)
        for name in ("c1", "c2", "sigma", "w", "b"):
            np.testing.assert_array_equal(getattr(loaded, name),
                                          getattr(rb, name), err_msg=name)
        assert loaded.q == rb.q
        assert loaded.mode is rb.mode
        assert features == toy_scalers[0]
        assert target == toy_scalers[1]

    def test_predictions_identical_on_100_inputs(self, tmp_path, rng,
                                                 toy_scalers):
        rb = random_rulebase(rng, 5, 2)
        path = _save(tmp_path, rb, toy_scalers)
        loaded, _, _, _ = load_model(path)
        X = rng.uniform(-0.3, 1.3, (100, 2))
        for a, b in zip(predict_arrays(rb, X), predict_arrays(loaded, X)):
            np.testing.assert_array_equal(a, b)

    def test_awkward_floats_survive(self, tmp_path, rng, toy_scalers):
        rb = random_rulebase(rng, 2, 2)
        rb.w[0, 0] = 0.1 + 0.2  # 0.30000000000000004
        rb.b[1] = 1e-17
        rb.q = 1.0 / 3.0
        path = _save(tmp_path, rb, toy_scalers)
        loaded, _, _, _ = load_model(path)
        assert loaded.w[0, 0] == rb.w[0, 0]
        assert loaded.b[1] == 1e-17
        assert loaded.q == rb.q

    def test_provenance_round_trip(self, tmp_path, rng, toy_scalers):
        rb = random_rulebase(rng, 2, 2)
        stamp = {"created": "2024-08-17", "seed": 11}
        path = _save(tmp_path, rb, toy_scalers, provenance=stamp)
        _, _, _, provenance = load_model(path)
        assert provenance == stamp

    def test_missing_provenance_is_empty_dict(self, tmp_path, rng,
                                              toy_scalers):
        path = _save(tmp_path, random_rulebase(rng, 2, 2), toy_scalers)
        assert load_model(path)[3] == {}

    def test_document_is_plain_json(self, tmp_path, rng, toy_scalers):
        path = _save(tmp_path, random_rulebase(rng, 3, 2), toy_scalers)
        doc = json.loads(path.read_text())
        assert doc["format_version"] == FORMAT_VERSION
        assert doc["R"] == 3 and doc["F"] == 2
        assert len(doc["rules"]) == 3
        assert [s["name"] for s in doc["feature_scalers"]] == ["x1", "x2"]


def _corrupt(tmp_path, rng, toy_scalers, mutate):
    path = _save(tmp_path, random_rulebase(rng, 3, 2), toy_scalers)
    doc = json.loads(path.read_text())
    mutate(doc)
    path.write_text(json.dumps(doc))
    return path


class TestSchemaValidation:
    def test_wrong_version(self, tmp_path, rng, toy_scalers):
        path = _corrupt(tmp_path, rng, toy_scalers,
                        lambda d: d.update(format_version=99))
        with pytest.raises(ModelFormatError, match="format_version"):
            load_model(path)

    def test_unknown_mode(self, tmp_path, rng, toy_scalers):
        path = _corrupt(tmp_path, rng, toy_scalers,
                        lambda d: d.update(mode="type3"))
        with pytest.raises(ModelFormatError, match="mode"):
            load_model(path)

    def test_rule_count_mismatch(self, tmp_path, rng, toy_scalers):
        path = _corrupt(tmp_path, rng, toy_scalers,
                        lambda d: d["rules"].pop())
        with pytest.raises(ModelFormatError, match="rule blocks"):
            load_model(path)

    def test_arity_mismatch(self, tmp_path, rng, toy_scalers):
        path = _corrupt(tmp_path, rng, toy_scalers,
                        lambda d: d["rules"][1]["c1"].append(0.5))
        with pytest.raises(ModelFormatError, match="arity"):
            load_model(path)

    def test_scaler_count_mismatch(self, tmp_path, rng, toy_scalers):
        path = _corrupt(tmp_path, rng, toy_scalers,
                        lambda d: d["feature_scalers"].pop())
        with pytest.raises(ModelFormatError, match="feature scalers"):
            load_model(path)

    @pytest.mark.parametrize("missing", ["format_version", "mode", "q",
                                         "rules", "target_scaler"])
    def test_missing_fields(self, tmp_path, rng, toy_scalers, missing):
        path = _corrupt(tmp_path, rng, toy_scalers,
                        lambda d: d.pop(missing))
        with pytest.raises(ModelFormatError):
            load_model(path)

    @pytest.mark.parametrize("scaler,field,value,expected", [
        ("feature", "max", 0.0, "feature scaler 'x2' field 'max'"),
        ("feature", "max", -1.0, "feature scaler 'x2' field 'max'"),
        ("feature", "min", float("inf"), "feature scaler 'x2' field 'min'"),
        ("feature", "max", float("nan"), "feature scaler 'x2' field 'max'"),
        ("target", "std", float("nan"), "target scaler 'energy_mwh' field "
                                        "'std'"),
        ("target", "std", 0.0, "target scaler 'energy_mwh' field 'std'"),
        ("target", "std", -40.0, "target scaler 'energy_mwh' field 'std'"),
        ("target", "mean", float("-inf"), "target scaler 'energy_mwh' "
                                          "field 'mean'"),
    ])
    def test_degenerate_scaler_rejected(self, tmp_path, rng, toy_scalers,
                                        scaler, field, value, expected):
        def mutate(doc):
            block = (doc["feature_scalers"][1] if scaler == "feature"
                     else doc["target_scaler"])
            block[field] = value

        path = _corrupt(tmp_path, rng, toy_scalers, mutate)
        with pytest.raises(ModelFormatError, match=expected):
            load_model(path)

    def test_invalid_json(self, tmp_path):
        path = tmp_path / "model.json"
        path.write_text("{not json")
        with pytest.raises(ModelFormatError, match="not valid JSON"):
            load_model(path)

    def test_invalid_parameters_rejected(self, tmp_path, rng, toy_scalers):
        # loading runs the structural validator, so a file whose bounds
        # are out of order cannot come back as a usable model
        def swap_bounds(doc):
            doc["rules"][0]["c1"], doc["rules"][0]["c2"] = \
                doc["rules"][0]["c2"], doc["rules"][0]["c1"]

        path = _corrupt(tmp_path, rng, toy_scalers, swap_bounds)
        with pytest.raises(ValueError, match="c1 <= c2"):
            load_model(path)

    def test_save_rejects_scaler_arity_mismatch(self, tmp_path, rng,
                                                toy_scalers):
        features, target = toy_scalers
        rb = random_rulebase(rng, 2, 3)
        with pytest.raises(ValueError, match="scaler"):
            save_model(rb, tmp_path / "m.json", features, target)
