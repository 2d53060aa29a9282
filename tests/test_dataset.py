"""CSV ingestion, normalization, splitting, and the synthetic generator."""

from __future__ import annotations

import csv
import math
import tempfile
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from it2anfis import dataset
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

    def test_zero_byte_file_fails(self, tmp_path):
        path = _write(tmp_path, "d.csv", "")
        for read in (lambda: load_csv(path, "energy_mwh"),
                     lambda: load_features(path, ["a"])):
            with pytest.raises(ValueError) as info:
                read()
            assert str(info.value) == \
                f"{path}: empty file, expected a header row"

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


def _outcome(path, columns: list[str]):
    """What ``_read_csv`` gives: names, shape, dtype, bytes; or the error."""
    try:
        names, rows = dataset._read_csv(path, lambda header: columns)
    except Exception as exc:  # noqa: BLE001 - csv.Error is not a ValueError
        return type(exc), str(exc)
    return names, rows.shape, rows.dtype, rows.tobytes()


def _strict_outcome(path, columns: list[str]):
    """``_outcome`` with numpy's parser switched off: the strict loop."""
    with mock.patch.object(dataset, "_parse_clean", return_value=None):
        return _outcome(path, columns)


WIDE_HEADER = ["date", "a", "energy_mwh"]
#: cells on which numpy's parser and ``float`` were seen to differ, or
#: that csv reads differently from a plain split; "<ff>" is written as a
#: byte that is not UTF-8
PITFALL_CELLS = ["1_000", '"2.5"', '"x,y"', "\u0661.\u0665", "", " ",
                 "1.5#x", "-0", "-0.0", "1e-400", "1e400", "4.9e-324",
                 "1.7976931348623157e308", "nan", "-inf", "Infinity",
                 "abc", "2024-01-01", "1.5\x1c", "\x1f2", "\u20031.5",
                 "1.5\x85", "\t2\t", " 3 ", "+.5", "5.", "1E5", "0x10",
                 "1.5\x00", "1.5j", "<ff>"]
finite_cells = st.one_of(st.floats(allow_nan=False, allow_infinity=False)
                         .map(repr), st.integers().map(str))
wide_cells = st.one_of(finite_cells, st.floats().map(repr),
                       st.sampled_from(PITFALL_CELLS))
#: most lines are clean, so that many files reach numpy's parser whole
clean_lines = st.tuples(st.sampled_from(["2024-01-01", "plant-A", ""])
                        | finite_cells, finite_cells, finite_cells
                        ).map(",".join)
wide_lines = st.one_of(clean_lines, clean_lines, clean_lines,
                       st.sampled_from(["", " ", ",,", " , , "]),
                       st.lists(wide_cells, min_size=2, max_size=4)
                       .map(",".join))


class TestNumpyPathProperty:
    """numpy's parser changes nothing: every file gives the strict loop's
    array bit for bit, or fails with the strict loop's exact error."""

    @settings(max_examples=400, deadline=None)
    @given(body=st.lists(wide_lines, max_size=6),
           ending=st.sampled_from(["\n", "\r\n", "\r"]),
           columns=st.sampled_from([["a", "energy_mwh"], ["energy_mwh", "a"],
                                    WIDE_HEADER, ["a"], ["energy_mwh"]]))
    def test_matches_strict_loop(self, body, ending, columns):
        text = ending.join([",".join(WIDE_HEADER), *body]) + ending
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "p.csv"
            path.write_bytes(text.encode("utf-8").replace(b"<ff>", b"\xff"))
            assert _outcome(path, columns) == _strict_outcome(path, columns)


class TestNumpyPathRegressions:
    """Files on which a plain ``np.loadtxt`` would differ from the loop."""

    def test_uniform_wrong_width_fails_at_first_line(self, tmp_path):
        path = _write(tmp_path, "d.csv", "a,b\n1,2,3\n4,5,6\n")
        with pytest.raises(ValueError) as info:
            load_features(path, ["a", "b"])
        assert str(info.value) == f"{path}: line 2: 3 cells, header has 2"

    def test_hash_is_not_a_comment(self, tmp_path):
        # as a comment, '#x' would cut the last cell to 1.5
        path = _write(tmp_path, "d.csv", "a,b\n2,1.5#x\n")
        with pytest.raises(ValueError) as info:
            load_features(path, ["a", "b"])
        assert str(info.value) == (f"{path}: line 2, column 'b': could not "
                                   f"convert string to float: '1.5#x'")

    @pytest.mark.parametrize("text", ["a,b\n", "a,b", "a,b\n\n\n"])
    def test_header_only_gives_zero_rows(self, tmp_path, text):
        path = _write(tmp_path, "d.csv", text)
        got = load_features(path, ["b", "a"])
        assert got.shape == (0, 2) and got.dtype == np.float64

    def test_whitespace_only_line_skipped(self, tmp_path):
        path = _write(tmp_path, "d.csv", "a,b\n1,2\n \n3,4\n")
        np.testing.assert_array_equal(load_features(path, ["a", "b"]),
                                      [[1, 2], [3, 4]])

    def test_quoted_cell_parsed(self, tmp_path):
        path = _write(tmp_path, "d.csv", 'a,b\n"2.5",1\n')
        np.testing.assert_array_equal(load_features(path, ["a", "b"]),
                                      [[2.5, 1.0]])

    def test_quoted_comma_in_unread_column_is_one_cell(self, tmp_path):
        # split on every comma, the row would have the header's 3 cells
        path = _write(tmp_path, "d.csv", 'date,site,b\n"x,y",1\n')
        with pytest.raises(ValueError) as info:
            load_features(path, ["b"])
        assert str(info.value) == f"{path}: line 2: 2 cells, header has 3"

    def test_header_spanning_lines_is_not_data(self, tmp_path):
        # the header's second line, read as data, would be the row 2,3
        path = _write(tmp_path, "d.csv", 'a,"x\n2,3"\n5,6\n')
        np.testing.assert_array_equal(load_features(path, ["a"]), [[5.0]])

    def test_date_column_file_takes_numpy_path(self, tmp_path, monkeypatch):
        path = _write(tmp_path, "d.csv",
                      "date,a,energy_mwh\n2024-01-01,1.5,10\n"
                      "2024-01-02,-0,20\n")

        def no_cell(text):
            raise AssertionError("the strict loop ran")

        monkeypatch.setattr(dataset, "_parse_cell", no_cell)
        raw = load_csv(path, "energy_mwh", date_column="date")
        assert raw.column_names == ["a", "energy_mwh"]
        assert raw.rows.tobytes() == np.array([[1.5, 10.0],
                                               [-0.0, 20.0]]).tobytes()

    def test_separator_control_char_fails_as_float_does(self, tmp_path):
        # numpy strips U+001C as whitespace; float() refuses it
        path = _write(tmp_path, "d.csv", "a\n1.5\x1c\n")
        with pytest.raises(ValueError, match=r"line 2, column 'a': could "
                                             r"not convert string to float"):
            load_features(path, ["a"])

    def test_cell_over_csv_field_limit_fails_as_csv_does(self, tmp_path):
        # csv's own message, with the file and line named
        path = _write(tmp_path, "d.csv", "a\n1.0\n1.0000000000\n")
        old = csv.field_size_limit(8)
        try:
            with pytest.raises(ValueError, match=r"d\.csv: line 3: field "
                                                 r"larger than field limit"):
                load_features(path, ["a"])
        finally:
            csv.field_size_limit(old)

    def test_header_over_csv_field_limit_names_line_one(self, tmp_path):
        path = _write(tmp_path, "d.csv", "abcdefghijkl\n1.0\n")
        old = csv.field_size_limit(8)
        try:
            with pytest.raises(ValueError, match=r"d\.csv: line 1: field "
                                                 r"larger than field limit"):
                load_features(path, ["abcdefghijkl"])
        finally:
            csv.field_size_limit(old)


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
        with pytest.raises(ValueError) as info:
            SyntheticSpec(n_latent_rules=0).validate()
        assert str(info.value) == "n_latent_rules must be >= 1"
