"""CSV ingestion, normalization, splitting, and the synthetic generator."""

from __future__ import annotations

import numpy as np
import pytest

from it2anfis.dataset import (SyntheticSpec, generate_synthetic,
                              inverse_target, load_csv, normalize_and_split,
                              split_sizes, TargetScaler)


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
        assert raw.dropped_count == 0

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

    def test_bad_rows_dropped_and_counted(self, tmp_path):
        path = _write(tmp_path, "d.csv",
                      "a,energy_mwh\n1,10\nNaN,20\n3,30\noops,40\n4,inf\n")
        raw = load_csv(path, "energy_mwh")
        assert raw.n_rows == 2
        assert raw.dropped_count == 3

    def test_date_column_carried_not_modeled(self, tmp_path):
        path = _write(tmp_path, "d.csv",
                      "date,a,energy_mwh\n2024-01-01,1,10\n"
                      "2024-01-02,2,20\n")
        raw = load_csv(path, "energy_mwh", date_column="date")
        assert raw.feature_names == ["a"]
        assert raw.dates == ["2024-01-01", "2024-01-02"]
        assert raw.rows.shape == (2, 2)

    def test_missing_date_column_rejected(self, tmp_path):
        path = _write(tmp_path, "d.csv", "a,energy_mwh\n1,10\n")
        with pytest.raises(ValueError, match="'when'"):
            load_csv(path, "energy_mwh", date_column="when")

    def test_short_rows_dropped(self, tmp_path):
        path = _write(tmp_path, "d.csv",
                      "a,b,energy_mwh\n1,2,10\n3,4\n")
        raw = load_csv(path, "energy_mwh")
        assert raw.n_rows == 1
        assert raw.dropped_count == 1


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
