"""Model persistence: exact round-trips and schema validation."""

from __future__ import annotations

import json
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from it2anfis.core import Mode, predict_arrays
from it2anfis.dataset import FeatureScaler, TargetScaler
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


# (path into the saved document, new value, what the error must say)
MALFORMED = [
    (("rules", 0), 5, "rule 0 is not a JSON object"),
    (("rules", 0, "c1"), 1.0, "rule 0 field 'c1' is not a list"),
    (("rules", 0, "c1"), ["a", "b"], "rule 0 field 'c1' holds a value "
                                     "that is not a finite number"),
    (("rules", 0, "b"), [1, 2], "rule 0 field 'b' is not a finite "
                                "number"),
    (("rules", 2, "sigma", 1), True, "rule 2 field 'sigma' holds"),
    (("feature_scalers", 0), None, "feature scaler 0 is not a JSON "
                                   "object"),
    (("feature_scalers", 0, "min"), "zz", "feature scaler 'x1' field "
                                          "'min' is not a finite number"),
    (("feature_scalers", 1, "name"), 7, "feature scaler 1 field 'name' "
                                        "is not a str"),
    (("target_scaler",), None, "target scaler is not a JSON object"),
    (("q",), "abc", "document field 'q' is not a finite number"),
    (("q",), 10 ** 400, "document field 'q' is not a finite number"),
    (("F",), "x", "field 'F' must be a positive integer"),
    (("F",), 2.7, "field 'F' must be a positive integer"),
    (("R",), 0, "field 'R' must be a positive integer"),
    (("format_version",), True, "unsupported format_version"),
]


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

    @pytest.mark.parametrize("keys,value,expected", MALFORMED, ids=[
        f"{'.'.join(map(str, keys))}={value!r:.12}"
        for keys, value, _ in MALFORMED])
    def test_malformed_field_named(self, tmp_path, rng, toy_scalers, keys,
                                   value, expected):
        def mutate(doc):
            for key in keys[:-1]:
                doc = doc[key]
            doc[keys[-1]] = value

        path = _corrupt(tmp_path, rng, toy_scalers, mutate)
        with pytest.raises(ModelFormatError) as info:
            load_model(path)
        assert str(info.value).startswith(f"{path}: ")
        assert expected in str(info.value)

    def test_non_utf8_bytes(self, tmp_path, rng, toy_scalers):
        path = _save(tmp_path, random_rulebase(rng, 2, 2), toy_scalers)
        path.write_bytes(b"\xff\xfe" + path.read_bytes())
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

    def test_huge_parameter_rejected(self, tmp_path, rng, toy_scalers):
        # finite, but X @ w.T overflows for inputs near [0, 1]
        def huge_slope(doc):
            doc["rules"][0]["w"][0] = 1.3120460497613255e308

        path = _corrupt(tmp_path, rng, toy_scalers, huge_slope)
        with pytest.raises(ModelFormatError, match="magnitude"):
            load_model(path)

    def test_save_rejects_scaler_arity_mismatch(self, tmp_path, rng,
                                                toy_scalers):
        features, target = toy_scalers
        rb = random_rulebase(rng, 2, 3)
        with pytest.raises(ValueError, match="scaler"):
            save_model(rb, tmp_path / "m.json", features, target)


def _paths(node, prefix=()):
    """Every location in a JSON document, the root included."""
    yield prefix
    items = (node.items() if isinstance(node, dict)
             else enumerate(node) if isinstance(node, list) else ())
    for key, child in items:
        yield from _paths(child, prefix + (key,))


json_values = st.recursive(
    st.none() | st.booleans() | st.integers(-10 ** 400, 10 ** 400)
    | st.floats() | st.text(max_size=4),
    lambda inner: (st.lists(inner, max_size=3)
                   | st.dictionaries(st.text(max_size=3), inner,
                                     max_size=3)),
    max_leaves=6)


def _saved_text() -> str:
    rb = random_rulebase(np.random.default_rng(5), 3, 2)
    features = [FeatureScaler(name=f"x{k + 1}", min=0.0, max=1.0)
                for k in range(2)]
    target = TargetScaler(name="energy_mwh", mean=260.0, std=40.0)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "model.json"
        save_model(rb, path, features, target)
        return path.read_text(encoding="utf-8")


SAVED = _saved_text()


class TestLoadModelProperty:
    """A damaged model file either loads as a valid, finite model or
    raises ModelFormatError; nothing else escapes."""

    @staticmethod
    def _check(data: bytes) -> None:
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "model.json"
            path.write_bytes(data)
            try:
                rb, features, target, _ = load_model(path)
            except ModelFormatError as exc:
                assert str(exc).startswith(f"{path}: ")
                return
        rb.validate()
        assert all(np.isfinite([s.min, s.max]).all() for s in features)
        assert np.isfinite([target.mean, target.std]).all()
        X = np.random.default_rng(0).uniform(-0.5, 1.5, (8, rb.n_features))
        assert np.all(np.isfinite(predict_arrays(rb, X)))

    @settings(max_examples=200, deadline=None)
    @given(cut=st.integers(0, len(SAVED)))
    def test_truncated(self, cut):
        self._check(SAVED[:cut].encode("utf-8"))

    @settings(max_examples=200, deadline=None)
    @given(at=st.integers(0, len(SAVED) - 1), byte=st.integers(0, 255))
    def test_byte_replaced(self, at, byte):
        data = bytearray(SAVED.encode("utf-8"))
        data[at] = byte
        self._check(bytes(data))

    @settings(max_examples=300, deadline=None)
    @given(data=st.data(), value=json_values, delete=st.booleans())
    def test_value_replaced_or_deleted(self, data, value, delete):
        doc = json.loads(SAVED)
        where = data.draw(st.sampled_from(list(_paths(doc))))
        if not where:
            doc = value
        else:
            parent = doc
            for key in where[:-1]:
                parent = parent[key]
            if delete:
                del parent[where[-1]]
            else:
                parent[where[-1]] = value
        self._check(json.dumps(doc).encode("utf-8"))
