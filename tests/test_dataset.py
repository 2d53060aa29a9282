"""CSV ingestion, normalization, splitting, and the synthetic generator."""

from __future__ import annotations

import math
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from it2anfis.dataset import (SyntheticSpec, generate_synthetic,
                              inverse_target, load_csv, load_features,
                              normalize_and_split, split_sizes, TargetScaler)


def _write(tmp_path, name: str, text: str):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return path


class TestLoadCsv:
    def test_basic_load(self, tmp_path):
        path = _write(tmp_path, "d.csv",
                      "a,b,energy_mwh\n1,2,10\n3,4,20\n")
        raw = load_csv(path, "energy_mwh")
        assert raw.column_names == ["a", "b", "energy_mwh"]
        assert raw.feature_names == ["a", "b"]
        assert raw.n_rows == 2

    def test_missing_file(self, tmp_path):
        with pytest.raises(FileNotFoundError, match="nope.csv"):
            load_csv(tmp_path / "nope.csv", "energy_mwh")

    def test_missing_target_column(self, tmp_path):
        path = _write(tmp_path, "d.csv", "a,b\n1,2\n")
        with pytest.raises(ValueError, match="energy_mwh"):
            load_csv(path, "energy_mwh")

    def test_header_only_is_zero_usable_rows(self, tmp_path):
        path = _write(tmp_path, "d.csv", "a,energy_mwh\n")
        with pytest.raises(ValueError, match="zero usable rows"):
            load_csv(path, "energy_mwh")

    @pytest.mark.parametrize("body,expected", [
        ("1,10\nNaN,20\n", "line 3, column 'a': non-finite cell: 'NaN'"),
        ("1,10\n\n3,inf\n", "line 4, column 'energy_mwh': non-finite "
                             "cell: 'inf'"),
        ("oops,40\n", "line 2, column 'a': could not convert string to "
                      "float: 'oops'"),
        ("1,\n", "line 2, column 'energy_mwh': could not convert string "
                  "to float: ''"),
    ], ids=["nan", "inf-after-blank-line", "text", "empty"])
    def test_bad_cell_fails_naming_line_and_column(self, tmp_path, body,
                                                   expected):
        path = _write(tmp_path, "d.csv", "a,energy_mwh\n" + body)
        with pytest.raises(ValueError) as info:
            load_csv(path, "energy_mwh")
        assert str(info.value) == f"{path}: {expected}"

    def test_date_column_carried_not_modeled(self, tmp_path):
        path = _write(tmp_path, "d.csv",
                      "date,a,energy_mwh\n2024-01-01,1,10\n"
                      "2024-01-02,2,20\n")
        raw = load_csv(path, "energy_mwh", date_column="date")
        assert raw.column_names == ["a", "energy_mwh"]
        assert raw.rows.shape == (2, 2)

    def test_missing_date_column_rejected(self, tmp_path):
        path = _write(tmp_path, "d.csv", "a,energy_mwh\n1,10\n")
        with pytest.raises(ValueError, match="'when'"):
            load_csv(path, "energy_mwh", date_column="when")

    def test_non_utf8_cell_fails_naming_line_and_column(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_bytes(b"a,energy_mwh\n1,10\n\xff,20\n")
        with pytest.raises(ValueError,
                           match=r"line 3, column 'a': could not convert"):
            load_csv(path, "energy_mwh")

    @pytest.mark.parametrize("row,cells", [("3,4", 2), ("3,4,5,6", 4)],
                             ids=["short", "long"])
    def test_wrong_length_row_fails_naming_counts(self, tmp_path, row,
                                                  cells):
        path = _write(tmp_path, "d.csv",
                      f"a,b,energy_mwh\n1,2,10\n{row}\n")
        with pytest.raises(ValueError) as info:
            load_csv(path, "energy_mwh")
        assert str(info.value) == \
            f"{path}: line 3: {cells} cells, header has 3"

    def test_header_repeating_a_name_fails_naming_it(self, tmp_path):
        path = _write(tmp_path, "d.csv", "a,a,energy_mwh\n1,2,10\n")
        with pytest.raises(ValueError, match="repeats column 'a'"):
            load_csv(path, "energy_mwh")

    def test_blank_lines_skipped(self, tmp_path):
        path = _write(tmp_path, "d.csv",
                      "a,energy_mwh\n\n1,10\n , \n2,20\n\n")
        raw = load_csv(path, "energy_mwh")
        np.testing.assert_array_equal(raw.rows, [[1, 10], [2, 20]])


HEADER = ["a", "b", "energy_mwh"]
cells = st.one_of(st.floats(allow_nan=False, allow_infinity=False).map(repr),
                  st.sampled_from(["nan", "inf", "-inf", "", " ", "abc"]))
lines = st.one_of(st.just(""),
                  st.lists(cells, min_size=2, max_size=4).map(",".join))


def _cell_ok(text: str) -> bool:
    try:
        return math.isfinite(float(text))
    except ValueError:
        return False


def _expected(body: list[str], columns: list[str]):
    """(first bad line number or None, parsed rows) by the stated policy."""
    positions = [HEADER.index(c) for c in columns]
    rows = []
    for number, line in enumerate(body, start=2):
        record = line.split(",")
        if not any(cell.strip() for cell in record):
            continue
        if len(record) != len(HEADER) or not all(
                _cell_ok(record[i]) for i in positions):
            return number, None
        rows.append([float(record[i]) for i in positions])
    return None, rows


class TestCsvPolicyProperty:
    """Any file either parses to finite rows, one per non-blank data
    line, or fails naming the file and its first bad line."""

    @settings(max_examples=300, deadline=None)
    @given(body=st.lists(lines, max_size=8))
    def test_load_csv_and_load_features(self, body):
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "p.csv"
            path.write_text("\n".join([",".join(HEADER), *body]) + "\n",
                            encoding="utf-8")
            for columns in (HEADER, ["energy_mwh", "a"]):
                bad_line, rows = _expected(body, columns)
                try:
                    if columns is HEADER:
                        got = load_csv(path, "energy_mwh").rows
                    else:
                        got = load_features(path, columns)
                except ValueError as exc:
                    if bad_line is None:
                        # only the labelled table refuses zero rows
                        assert columns is HEADER and rows == []
                        assert str(exc).startswith(f"{path}: zero usable")
                    else:
                        assert str(exc).startswith(
                            f"{path}: line {bad_line}")
                    continue
                assert bad_line is None
                assert got.shape == (len(rows), len(columns))
                assert np.all(np.isfinite(got))
                np.testing.assert_array_equal(got, np.reshape(rows, got.shape))


class TestNormalizeAndSplit:
    def test_split_sizes_1000(self):
        assert split_sizes(1000) == (640, 160, 200)

    def test_split_sizes_cover_everything(self):
        for n in (10, 11, 99, 123, 1001):
            tr, va, te = split_sizes(n)
            assert tr + va + te == n
            assert abs(tr - 0.64 * n) <= 1
            assert abs(va - 0.16 * n) <= 1

    def test_split_indices_disjoint_and_complete(self, small_dataset):
        ds = small_dataset
        merged = np.concatenate([ds.train_idx, ds.val_idx, ds.test_idx])
        assert len(merged) == len(set(merged.tolist())) == ds.X.shape[0]

    def test_determinism(self):
        raw = generate_synthetic(SyntheticSpec(n_samples=100, n_features=2,
                                               seed=3))
        a = normalize_and_split(raw, seed=7)
        b = normalize_and_split(raw, seed=7)
        np.testing.assert_array_equal(a.train_idx, b.train_idx)
        np.testing.assert_array_equal(a.test_idx, b.test_idx)
        np.testing.assert_array_equal(a.X, b.X)

    def test_train_rows_inside_unit_box_others_unclipped(self,
                                                         small_dataset):
        ds = small_dataset
        Xtr = ds.X[ds.train_idx]
        assert Xtr.min() >= 0.0 and Xtr.max() <= 1.0
        # training stats alone define the box, so other splits may leave it
        rest = np.concatenate([ds.X[ds.val_idx], ds.X[ds.test_idx]])
        assert rest.min() < 0.0 or rest.max() > 1.0

    def test_scalers_fit_on_train_only(self, small_dataset):
        ds = small_dataset
        for k, scaler in enumerate(ds.feature_scalers):
            col = ds.X[ds.train_idx][:, k]
            orig = scaler.inverse(col)
            assert orig.min() == pytest.approx(scaler.min, rel=1e-12)
            assert orig.max() == pytest.approx(scaler.max, rel=1e-12)

    def test_midpoint_scales_to_half(self):
        from it2anfis.dataset import FeatureScaler

        scaler = FeatureScaler(name="a", min=2.0, max=10.0)
        assert scaler.transform(np.float64(6.0)) == 0.5
        assert scaler.inverse(np.float64(0.5)) == 6.0

    def test_constant_feature_rejected_by_name(self):
        raw = generate_synthetic(SyntheticSpec(n_samples=50, n_features=2,
                                               seed=1))
        raw.rows[:, 0] = 4.25
        with pytest.raises(ValueError, match="'x1'"):
            normalize_and_split(raw, seed=0)

    def test_constant_target_rejected(self):
        raw = generate_synthetic(SyntheticSpec(n_samples=50, n_features=2,
                                               seed=1))
        raw.rows[:, -1] = 100.0
        with pytest.raises(ValueError, match="'energy_mwh'"):
            normalize_and_split(raw, seed=0)

    def test_too_few_rows_rejected(self):
        raw = generate_synthetic(SyntheticSpec(n_samples=10, n_features=2,
                                               seed=1))
        raw.rows = raw.rows[:5]
        with pytest.raises(ValueError, match="at least 10"):
            normalize_and_split(raw, seed=0)

    def test_target_round_trip(self, small_dataset):
        ds = small_dataset
        y_tr = ds.y[ds.train_idx]
        back = inverse_target(y_tr, ds.target_scaler)
        again = ds.target_scaler.transform(back)
        np.testing.assert_allclose(again, y_tr, rtol=1e-12)


class TestInverseTarget:
    def test_known_points(self):
        scaler = TargetScaler(name="energy_mwh", mean=260.0, std=40.0)
        assert inverse_target(0.0, scaler) == 260.0
        assert inverse_target(1.0, scaler) == 300.0
        assert inverse_target(-2.0, scaler) == 180.0


class TestGenerateSynthetic:
    def test_deterministic(self):
        spec = SyntheticSpec(n_samples=60, n_features=4, seed=1)
        a = generate_synthetic(spec)
        b = generate_synthetic(spec)
        np.testing.assert_array_equal(a.rows, b.rows)
        assert a.column_names == b.column_names

    def test_noiseless_single_rule_is_exactly_affine(self):
        spec = SyntheticSpec(n_samples=80, n_features=3, n_latent_rules=1,
                             noise_std=0.0, seed=5)
        raw = generate_synthetic(spec)
        X = np.column_stack([raw.rows[:, :3], np.ones(80)])
        y = raw.rows[:, 3]
        coef, *_ = np.linalg.lstsq(X, y, rcond=None)
        np.testing.assert_allclose(X @ coef, y, atol=1e-9)

    def test_paper_scale_shape(self):
        raw = generate_synthetic(SyntheticSpec(n_samples=1000,
                                               n_features=13, seed=0))
        assert raw.rows.shape == (1000, 14)
        assert raw.target_column == "energy_mwh"
        assert len(raw.feature_names) == 13

    def test_invalid_specs_rejected(self):
        with pytest.raises(ValueError):
            SyntheticSpec(n_samples=5).validate()
        with pytest.raises(ValueError):
            SyntheticSpec(n_features=0).validate()
        with pytest.raises(ValueError):
            SyntheticSpec(noise_std=-0.1).validate()
