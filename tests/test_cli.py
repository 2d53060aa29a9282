"""End-to-end command-line flows against generated CSV data."""

from __future__ import annotations

import contextlib
import csv
import importlib
import io
import json
import math
import os
import re
import subprocess
import sys
import xml.etree.ElementTree as ET
from pathlib import Path

import numpy as np
import pytest

import it2anfis
from it2anfis import core
from it2anfis.cli import (PREDICTION_COLUMNS, _write_predictions,
                          build_parser, main)
from it2anfis.dataset import SyntheticSpec, load_csv, normalize_and_split
from it2anfis.initializer import InitConfig, build_rulebase
from it2anfis.sweep import LABEL_MODES, SweepConfig, run_seed
from it2anfis.trainer import TrainConfig


def _run(argv: list[str]) -> tuple[int, str]:
    """Invoke the CLI in-process, capturing stdout."""
    buffer = io.StringIO()
    with contextlib.redirect_stdout(buffer):
        code = main(argv)
    return code, buffer.getvalue()


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    """One shared synth -> train (it2 and anfis1) setup for the module."""
    root = tmp_path_factory.mktemp("cli")
    data = root / "data.csv"
    code, _ = _run(["synth", "--out", str(data), "--seed", "3",
                    "--synth-samples", "150", "--synth-features", "2",
                    "--synth-latent-rules", "2"])
    assert code == 0

    outputs = {"root": root, "data": data}
    for label, mode in (("it2", "it2"), ("anfis1", "anfis1")):
        model = root / f"model_{label}.json"
        code, stdout = _run(["train", "--data", str(data),
                             "--rules", "3", "--seed", "3",
                             "--max-epochs", "8", "--mode", mode,
                             "--out", str(model)])
        assert code == 0
        outputs[f"model_{label}"] = model
        outputs[f"train_stdout_{label}"] = stdout
    return outputs


def _read_predictions(path) -> list[dict[str, str]]:
    with open(path, newline="") as handle:
        rows = list(csv.reader(handle))
    assert rows[0] == list(PREDICTION_COLUMNS)
    return [dict(zip(rows[0], r)) for r in rows[1:]]


class TestTrainCommand:
    def test_reports_and_artifacts(self, workspace):
        stdout = workspace["train_stdout_it2"]
        assert re.search(r"^mode=it2 rules=3 seed=3 epochs_run=8 "
                         r"best_val_mse_std=", stdout, re.MULTILINE)
        for split in ("train", "val", "test"):
            assert re.search(rf"^{split} mse=\S+ rmse=\S+ mae=\S+ mape=\S+",
                             stdout, re.MULTILINE)
        assert workspace["model_it2"].is_file()
        log = workspace["model_it2"].with_suffix(".log.jsonl")
        assert log.is_file()
        assert len(log.read_text().strip().splitlines()) == 8

    def test_provenance_stamped(self, workspace):
        doc = json.loads(workspace["model_it2"].read_text())
        assert doc["provenance"] == {"init_seed": 3, "mode": "it2",
                                     "rules": 3}

    def test_missing_data_file_fails_with_path(self, capsys):
        code = main(["train", "--data", "/nonexistent/missing.csv"])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert "missing.csv" in err

    def test_no_data_source_fails(self, capsys):
        for command in ("train", "sweep"):
            with pytest.raises(SystemExit) as info:
                main([command])
            assert info.value.code == 2
            assert "the following arguments are required: --data" in \
                capsys.readouterr().err

    def test_unknown_mode_rejected_by_parser(self, capsys):
        with pytest.raises(SystemExit) as info:
            main(["train", "--data", "d.csv", "--mode", "type3"])
        assert info.value.code == 2
        assert "invalid choice: 'type3'" in capsys.readouterr().err

    @pytest.mark.parametrize("flag, value", [
        ("--eta-cons", "0.5"), ("--eta-cons", "nan"), ("--eta-ant", "inf"),
        ("--lambda-l1", "nan"), ("--lambda-l2", "inf"),
    ])
    def test_bad_rate_or_weight_fails_writing_nothing(
            self, workspace, tmp_path, capsys, flag, value):
        message = {
            "--eta-cons": "eta_cons must lie in [1e-05, 0.05]",
            "--eta-ant": "eta_ant must lie in [1e-06, 0.02]",
            "--lambda-l1": "lambda_l1 must be finite and >= 0",
            "--lambda-l2": "lambda_l2 must be finite and >= 0",
        }[flag]
        code = main(["train", "--data", str(workspace["data"]),
                     "--rules", "3", "--max-epochs", "2", flag, value,
                     "--out", str(tmp_path / "model.json")])
        assert code == 1
        assert message in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []


class TestPredictCommand:
    def test_roundtrip_matches_reported_train_mse(self, workspace):
        out = workspace["root"] / "preds_it2.csv"
        code, stdout = _run(["predict", "--model",
                             str(workspace["model_it2"]),
                             "--data", str(workspace["data"]),
                             "--out", str(out)])
        assert code == 0
        assert "wrote 150 predictions" in stdout
        preds = _read_predictions(out)
        y_pred = np.array([float(p["y_pred_mwh"]) for p in preds])

        raw = load_csv(workspace["data"], "energy_mwh")
        data = normalize_and_split(raw, 3)
        y_true = raw.rows[:, raw.column_names.index("energy_mwh")]
        train_idx = data.train_idx
        mse = float(np.mean((y_pred[train_idx] - y_true[train_idx]) ** 2))

        match = re.search(r"^train mse=(\S+)",
                          workspace["train_stdout_it2"], re.MULTILINE)
        assert match is not None
        assert mse == pytest.approx(float(match.group(1)), rel=1e-9)

    def test_interval_columns_ordered(self, workspace):
        out = workspace["root"] / "preds_interval.csv"
        _run(["predict", "--model", str(workspace["model_it2"]),
              "--data", str(workspace["data"]), "--out", str(out)])
        for p in _read_predictions(out):
            lo = float(p["interval_lo_mwh"])
            hi = float(p["interval_hi_mwh"])
            assert lo <= float(p["y_pred_mwh"]) <= hi
            assert float(p["width_mwh"]) == pytest.approx(hi - lo)

    def test_type1_width_exactly_zero(self, workspace):
        out = workspace["root"] / "preds_t1.csv"
        code, _ = _run(["predict", "--model", str(workspace["model_anfis1"]),
                        "--data", str(workspace["data"]),
                        "--out", str(out)])
        assert code == 0
        for p in _read_predictions(out):
            assert p["width_mwh"] == "0"
            assert p["interval_lo_mwh"] == p["interval_hi_mwh"] \
                == p["y_pred_mwh"]

    def test_header_only_input_gives_header_only_output(self, workspace):
        empty = workspace["root"] / "empty.csv"
        empty.write_text("x1,x2\n")
        out = workspace["root"] / "preds_empty.csv"
        code, stdout = _run(["predict", "--model",
                             str(workspace["model_it2"]),
                             "--data", str(empty), "--out", str(out)])
        assert code == 0
        assert "wrote 0 predictions" in stdout
        assert _read_predictions(out) == []

    @pytest.mark.parametrize("values", [
        [250.5, -0.0, 0.0, 1e300, -1.2345678901234567e300, 1e-300,
         -9.87654321e-301, 2.2250738585072014e-308, 5e-324, 1 / 3],
        [],
    ], ids=["edge-values", "no-rows"])
    def test_writer_bytes_match_csv_writer(self, tmp_path, values):
        y_p = np.array(values, dtype=np.float64)
        lo = y_p - np.abs(y_p) / 7
        hi = y_p + np.abs(y_p) / 3
        out = tmp_path / "fast.csv"
        _write_predictions(out, y_p, lo, hi)

        golden = tmp_path / "golden.csv"
        with golden.open("w", newline="", encoding="utf-8") as handle:
            writer = csv.writer(handle)
            writer.writerow(PREDICTION_COLUMNS)
            for i in range(y_p.shape[0]):
                writer.writerow([i, f"{y_p[i]:.17g}", f"{lo[i]:.17g}",
                                 f"{hi[i]:.17g}", f"{hi[i] - lo[i]:.17g}"])
        assert out.read_bytes() == golden.read_bytes()
        assert out.read_bytes().count(b"\r\n") == len(values) + 1
        if values:
            assert b",-0," in out.read_bytes()

    def test_missing_feature_column_fails(self, workspace, capsys):
        bad = workspace["root"] / "bad.csv"
        bad.write_text("x1,unrelated\n0.5,1.0\n")
        code = main(["predict", "--model", str(workspace["model_it2"]),
                     "--data", str(bad),
                     "--out", str(workspace["root"] / "nope.csv")])
        assert code == 1
        assert "missing model feature columns" in capsys.readouterr().err

    @pytest.mark.parametrize("body,expected", [
        ("0.5,0.25\n0.5\n", "line 3: 1 cells, header has 2"),
        ("0.5,0.25\n0.5,nan\n", "line 3, column 'x2': non-finite cell: "
                                 "'nan'"),
        ("abc,0.25\n", "line 2, column 'x1': could not convert string "
                       "to float: 'abc'"),
    ])
    @pytest.mark.parametrize("command", ["predict", "explain"])
    def test_bad_cell_fails_naming_line_and_column(self, workspace, capsys,
                                                   command, body, expected):
        bad = workspace["root"] / "bad_cell.csv"
        bad.write_text("x1,x2\n" + body)
        out = workspace["root"] / "nope.out"
        code = main([command, "--model", str(workspace["model_it2"]),
                     "--data", str(bad), "--out", str(out)])
        assert code == 1
        assert capsys.readouterr().err.strip() == \
            f"error: {bad}: {expected}"
        assert not out.exists()


class TestExplainCommand:
    def test_report_structure(self, workspace):
        out = workspace["root"] / "report.json"
        code, _ = _run(["explain", "--model", str(workspace["model_it2"]),
                        "--out", str(out)])
        assert code == 0
        doc = json.loads(out.read_text())
        assert len(doc["per_feature"]) == 3 * 2
        assert len(doc["per_rule"]) == 3
        assert "per_instance" not in doc

    def test_instance_level_with_data(self, workspace):
        out = workspace["root"] / "report_inst.json"
        code, _ = _run(["explain", "--model", str(workspace["model_it2"]),
                        "--data", str(workspace["data"]),
                        "--out", str(out)])
        assert code == 0
        doc = json.loads(out.read_text())
        assert len(doc["per_instance"]) == 150
        first = doc["per_instance"][0]
        assert first["interval"][0] <= first["y_pred"] \
            <= first["interval"][1]

    def test_svg_and_text_artifacts(self, workspace):
        out = workspace["root"] / "report_media.json"
        code, _ = _run(["explain", "--model", str(workspace["model_it2"]),
                        "--out", str(out), "--svg", "--text"])
        assert code == 0
        for j in (1, 2, 3):
            svg = out.with_suffix(f".rule{j}.svg")
            assert svg.is_file()
            ET.fromstring(svg.read_text())
        rules = out.with_suffix(".rules.txt").read_text()
        assert rules.count("Rule ") == 3
        assert "orig:" in rules

    def test_type1_reports_zero_fou(self, workspace):
        out = workspace["root"] / "report_t1.json"
        _run(["explain", "--model", str(workspace["model_anfis1"]),
              "--out", str(out)])
        doc = json.loads(out.read_text())
        assert all(e["fou_area"] == 0.0 for e in doc["per_feature"])


class TestExplainMatchesPredict:
    """``explain --data`` and ``predict`` give the same instance intervals."""

    @pytest.fixture(scope="class")
    def served(self, tmp_path_factory):
        # on this table a 1-row forward per instance moved two rows'
        # intervals by one ulp away from predict's chunked pass
        root = tmp_path_factory.mktemp("agree")
        data, model = root / "data.csv", root / "model.json"
        assert _run(["synth", "--out", str(data), "--seed", "3",
                     "--synth-samples", "600", "--synth-features",
                     "5"])[0] == 0
        assert _run(["train", "--data", str(data), "--rules", "7",
                     "--seed", "3", "--max-epochs", "8",
                     "--out", str(model)])[0] == 0
        return root, data, model

    def test_bit_identical_on_every_row(self, served):
        root, data, model = served
        preds, report = root / "preds.csv", root / "report.json"
        assert _run(["predict", "--model", str(model), "--data", str(data),
                     "--out", str(preds)])[0] == 0
        assert _run(["explain", "--model", str(model), "--data", str(data),
                     "--out", str(report)])[0] == 0
        rows = _read_predictions(preds)
        inst = json.loads(report.read_text())["per_instance"]
        assert len(inst) == len(rows) == 600
        for n, (row, entry) in enumerate(zip(rows, inst)):
            assert entry["index"] == int(row["index"]) == n
            assert [entry["y_pred"], *entry["interval"], entry["width"]] \
                == [float(row[c]) for c in PREDICTION_COLUMNS[1:]]

    def test_fires_once_per_chunk(self, served, monkeypatch):
        root, data, model = served
        # 7 rules x 5 features: 64 rows per chunk, 10 chunks of 600 rows
        monkeypatch.setattr(core, "PREDICT_CHUNK_BYTES", 64 * 8 * 7 * 5)
        calls = []
        fire = core._fire_batch

        def counting(X, *params):
            calls.append(X.shape[0])
            return fire(X, *params)

        monkeypatch.setattr(core, "_fire_batch", counting)
        report = root / "report_chunks.json"
        assert _run(["explain", "--model", str(model), "--data", str(data),
                     "--out", str(report)])[0] == 0
        assert len(calls) <= math.ceil(600 / 64)
        assert sum(calls) == 600
        assert len(json.loads(report.read_text())["per_instance"]) == 600


class TestEvaluateCommand:
    def test_matches_prediction_file(self, workspace):
        code, stdout = _run(["evaluate", "--model",
                             str(workspace["model_it2"]),
                             "--data", str(workspace["data"])])
        assert code == 0
        match = re.search(r"^eval mse=(\S+) rmse=(\S+)", stdout,
                          re.MULTILINE)
        assert match is not None

        out = workspace["root"] / "preds_eval.csv"
        _run(["predict", "--model", str(workspace["model_it2"]),
              "--data", str(workspace["data"]), "--out", str(out)])
        y_pred = np.array([float(p["y_pred_mwh"])
                           for p in _read_predictions(out)])
        raw = load_csv(workspace["data"], "energy_mwh")
        y_true = raw.rows[:, raw.column_names.index("energy_mwh")]
        mse = float(np.mean((y_pred - y_true) ** 2))
        assert float(match.group(1)) == pytest.approx(mse, rel=1e-12)

    def test_unused_text_column_is_not_read(self, workspace):
        lines = workspace["data"].read_text().splitlines()
        data = workspace["root"] / "with_site.csv"
        data.write_text("\n".join([f"site,{lines[0]}"] + [
            f"plant-A,{ln}" for ln in lines[1:]]) + "\n")
        clean = _run(["evaluate", "--model", str(workspace["model_it2"]),
                      "--data", str(workspace["data"])])
        assert _run(["evaluate", "--model", str(workspace["model_it2"]),
                     "--data", str(data)]) == clean
        assert clean[0] == 0

    def test_missing_feature_column_fails(self, workspace, capsys):
        data = workspace["root"] / "no_x2.csv"
        data.write_text("x1,energy_mwh\n0.5,250\n")
        assert main(["evaluate", "--model", str(workspace["model_it2"]),
                     "--data", str(data)]) == 1
        assert capsys.readouterr().err.strip() == \
            f"error: {data}: missing model feature columns ['x2']"

    def test_zero_target_prints_mape_note(self, workspace, tmp_path):
        lines = workspace["data"].read_text().splitlines()
        cells = lines[1].split(",")
        lines[1] = ",".join(cells[:-1] + ["0"])
        zeroed = tmp_path / "zero.csv"
        zeroed.write_text("\n".join(lines) + "\n")
        code, stdout = _run(["evaluate", "--model",
                             str(workspace["model_it2"]),
                             "--data", str(zeroed)])
        assert code == 0
        assert stdout.splitlines()[-1] == \
            "note: MAPE undefined (zero-valued target present)"

    def test_missing_model_fails(self, workspace, capsys):
        code = main(["evaluate", "--model", "/nonexistent/model.json",
                     "--data", str(workspace["data"])])
        assert code == 1
        assert "error:" in capsys.readouterr().err


class TestInputPolicy:
    """Every command reads a CSV under the same strict bad-row policy."""

    @staticmethod
    def _commands(workspace, data):
        model = ["--model", str(workspace["model_it2"])]
        out = str(workspace["root"] / "policy.out")
        return {
            "train": ["train", "--data", str(data), "--max-epochs", "1",
                      "--out", out],
            "sweep": ["sweep", "--data", str(data), "--rules-list", "2",
                      "--seeds", "1", "--max-epochs", "1", "--out", out],
            "evaluate": ["evaluate", *model, "--data", str(data)],
            "predict": ["predict", *model, "--data", str(data),
                        "--out", out],
            "explain": ["explain", *model, "--data", str(data),
                        "--out", out],
        }

    @pytest.mark.parametrize("line,edit,expected", [
        (6, lambda cells: ["nan"] + cells[1:],
         "line 6, column 'x1': non-finite cell: 'nan'"),
        (10, lambda cells: cells[:-1], "line 10: 2 cells, header has 3"),
    ], ids=["nan", "short"])
    def test_bad_row_fails_every_command(self, workspace, capsys, line,
                                         edit, expected):
        lines = workspace["data"].read_text().splitlines()
        lines[line - 1] = ",".join(edit(lines[line - 1].split(",")))
        data = workspace["root"] / "bad_row.csv"
        data.write_text("\n".join(lines) + "\n")
        for command, argv in self._commands(workspace, data).items():
            assert main(argv) == 1, command
            assert capsys.readouterr().err.strip() == \
                f"error: {data}: {expected}", command

    def test_repeated_header_name_fails(self, workspace, capsys):
        # two different x1 columns: no command may pick one silently
        lines = workspace["data"].read_text().splitlines()
        data = workspace["root"] / "repeated.csv"
        data.write_text("\n".join(f"{ln.split(',')[1]},{ln}"
                                  if k else f"x1,{ln}"
                                  for k, ln in enumerate(lines)) + "\n")
        for command, argv in self._commands(workspace, data).items():
            assert main(argv) == 1, command
            assert capsys.readouterr().err.strip() == \
                f"error: {data}: header repeats column 'x1'", command


class TestSweepCommand:
    def test_grid_csv_summary_and_chart(self, workspace):
        out = workspace["root"] / "sweep.csv"
        code, stdout = _run(["sweep", "--data", str(workspace["data"]),
                             "--rules-list", "2,3", "--seeds", "1",
                             "--modes", "it2,anfis1", "--max-epochs", "2",
                             "--seed", "1", "--out", str(out), "--svg"])
        assert code == 0
        assert "wrote 4 rows" in stdout
        with out.open(newline="") as handle:
            rows = list(csv.reader(handle))
        assert len(rows) == 5
        assert all(r[-1] == "ok" for r in rows[1:])

        summary = json.loads(out.with_suffix(".summary.json").read_text())
        assert summary["n_runs"] == 4
        assert summary["n_failed"] == 0
        assert len(summary["aggregates"]) == 4

        ET.fromstring(out.with_suffix(".svg").read_text())

    def test_failed_runs_counted_in_warning(self, workspace, tmp_path):
        # a constant feature fails every cell's split, and each failure
        # lands in its row instead of stopping the sweep
        with workspace["data"].open(newline="") as handle:
            rows = list(csv.reader(handle))
        flat = tmp_path / "flat.csv"
        with flat.open("w", newline="") as handle:
            csv.writer(handle).writerows(
                [rows[0]] + [["1"] + r[1:] for r in rows[1:]])
        out = tmp_path / "s.csv"
        code, stdout = _run(["sweep", "--data", str(flat), "--rules-list",
                             "2,3", "--seeds", "1", "--modes", "it2",
                             "--max-epochs", "1", "--parallelism", "1",
                             "--out", str(out)])
        assert code == 0
        assert "warning: 2 runs failed (see status column)" in \
            stdout.splitlines()
        with out.open(newline="") as handle:
            statuses = [r["status"] for r in csv.DictReader(handle)]
        assert statuses == ["error: feature 'x1' is constant on the "
                            "training split (value 1.0)"] * 2

    def test_bad_mode_token_fails(self, workspace, capsys):
        code = main(["sweep", "--data", str(workspace["data"]),
                     "--modes", "it2,bogus",
                     "--out", str(workspace["root"] / "s.csv")])
        assert code == 1
        assert "bogus" in capsys.readouterr().err

    @pytest.mark.parametrize("grid, message", [
        (["--rules-list", "3,3", "--modes", "it2,it2"],
         "rule_counts repeats 3: every grid cell must be distinct"),
        (["--rules-list", "3", "--modes", "it2,anfis1,it2"],
         "modes repeats 'it2': every grid cell must be distinct"),
        (["--rules-list", "3", "--modes", "it2,anfis2"],
         "--modes: unknown mode 'anfis2'; valid modes are it2, anfis0, "
         "anfis1"),
        (["--rules-list", "3,,4"], "--rules-list: '' is not an integer"),
        (["--rules-list", "3,x"], "--rules-list: 'x' is not an integer"),
    ], ids=["repeated-rules", "repeated-mode", "unknown-mode",
            "empty-rule-count", "non-integer-rule-count"])
    def test_bad_grid_names_flag_and_token(self, workspace, capsys, grid,
                                           message):
        out = workspace["root"] / "grid.csv"
        code = main(["sweep", "--data", str(workspace["data"]), "--seeds",
                     "1", "--max-epochs", "1", "--out", str(out), *grid])
        assert code == 1
        assert capsys.readouterr().err.strip() == f"error: {message}"
        assert not out.exists()

    def test_too_many_seeds_fails(self, workspace, capsys):
        out = workspace["root"] / "many.csv"
        code = main(["sweep", "--data", str(workspace["data"]),
                     "--rules-list", "2", "--seeds", "101",
                     "--max-epochs", "1", "--out", str(out)])
        assert code == 1
        assert "n_seeds must be <= 100" in capsys.readouterr().err
        assert not out.exists()

    def test_non_finite_rate_fails_before_training(self, workspace, tmp_path,
                                                   capsys, monkeypatch):
        self._fails_before_training(workspace, tmp_path, capsys, monkeypatch,
                                    ["--eta-cons", "nan"],
                                    "eta_cons must lie in")

    @pytest.mark.parametrize("flag, value, message", [
        ("--q", "2", "q must lie in [0, 1], got 2.0"),
        ("--q", "nan", "q must lie in [0, 1], got nan"),
        ("--alpha", "nan", "alpha must lie in (0, 1], got nan"),
        ("--alpha", "0", "alpha must lie in (0, 1], got 0.0"),
    ])
    def test_bad_q_or_alpha_fails_before_training(self, workspace, tmp_path,
                                                  capsys, monkeypatch, flag,
                                                  value, message):
        self._fails_before_training(workspace, tmp_path, capsys, monkeypatch,
                                    [flag, value], message)

    def test_row_equals_train_at_its_run_seed(self, workspace, tmp_path):
        # both commands train through ``sweep.fit``: the anfis1, R = 3 cell
        # at seed index 1 under seed base 0 is ``train --seed 301``
        assert run_seed(0, 3, 1) == 301
        out = tmp_path / "cells.csv"
        assert _run(["sweep", "--data", str(workspace["data"]),
                     "--rules-list", "3", "--seeds", "2", "--modes",
                     "anfis1", "--max-epochs", "4", "--seed", "0",
                     "--out", str(out)])[0] == 0
        with out.open(newline="") as handle:
            (row,) = [r for r in csv.DictReader(handle) if r["seed"] == "1"]
        code, stdout = _run(["train", "--data", str(workspace["data"]),
                             "--rules", "3", "--seed", "301", "--mode",
                             "anfis1", "--max-epochs", "4",
                             "--out", str(tmp_path / "model.json")])
        assert code == 0
        printed = {line.split()[0]: dict(cell.split("=")
                                         for cell in line.split()[1:])
                   for line in stdout.splitlines()
                   if line.startswith(("test ", "val "))}
        # both print the same float with "%.17g", so equal text is equal bits
        for name in ("mse", "rmse", "mae", "mape"):
            assert row[f"test_{name}"] == printed["test"][name]
        assert row["val_mse"] == printed["val"]["mse"]

    @staticmethod
    def _fails_before_training(workspace, tmp_path, capsys, monkeypatch,
                               flags, message):
        calls = []
        # the package's ``sweep`` attribute is the function, not the module
        monkeypatch.setattr(importlib.import_module("it2anfis.sweep"),
                            "train", lambda *args: calls.append(args))
        code = main(["sweep", "--data", str(workspace["data"]),
                     "--rules-list", "2", "--seeds", "1",
                     "--max-epochs", "1", *flags,
                     "--out", str(tmp_path / "s.csv")])
        assert code == 1
        assert message in capsys.readouterr().err
        assert calls == []
        assert list(tmp_path.iterdir()) == []


class TestSynthCommand:
    def test_deterministic_bytes(self, tmp_path):
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        for path in (a, b):
            code, _ = _run(["synth", "--out", str(path), "--seed", "5",
                            "--synth-samples", "50",
                            "--synth-features", "3"])
            assert code == 0
        assert a.read_bytes() == b.read_bytes()

    def test_seed_changes_content(self, tmp_path):
        a = tmp_path / "a.csv"
        c = tmp_path / "c.csv"
        _run(["synth", "--out", str(a), "--seed", "5",
              "--synth-samples", "50", "--synth-features", "3"])
        _run(["synth", "--out", str(c), "--seed", "6",
              "--synth-samples", "50", "--synth-features", "3"])
        assert a.read_bytes() != c.read_bytes()

    def test_module_entry_point(self, tmp_path):
        out = tmp_path / "s.csv"
        src = str(Path(it2anfis.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            filter(None, (src, os.environ.get("PYTHONPATH"))))}
        done = subprocess.run(
            [sys.executable, "-m", "it2anfis.cli", "synth", "--out",
             str(out), "--synth-samples", "20", "--synth-features", "2"],
            env=env, capture_output=True, text=True, timeout=120)
        assert done.returncode == 0, done.stderr
        assert f"wrote 20 rows to {out}" in done.stdout
        with out.open(newline="") as handle:
            assert len(list(csv.reader(handle))) == 21

    def test_expected_shape(self, tmp_path):
        out = tmp_path / "s.csv"
        _run(["synth", "--out", str(out), "--seed", "1",
              "--synth-samples", "40", "--synth-features", "4"])
        with out.open(newline="") as handle:
            rows = list(csv.reader(handle))
        assert rows[0] == ["x1", "x2", "x3", "x4", "energy_mwh"]
        assert len(rows) == 41


class TestParser:
    def test_built_once_and_reused(self):
        # main parses every command with one parser; no parse may leak
        # into the next
        parser = build_parser()
        assert build_parser() is parser
        first = parser.parse_args(["predict", "--model", "m", "--data", "d",
                                   "--out", "o"])
        second = parser.parse_args(["evaluate", "--model", "m2", "--data",
                                    "d2"])
        assert (first.command, first.model, first.out) == ("predict", "m",
                                                           "o")
        assert (second.command, second.model) == ("evaluate", "m2")
        assert not hasattr(second, "out")

    def test_defaults_are_the_configs(self):
        parser = build_parser()
        train, sweep = (parser.parse_args([command, "--data", "d"])
                        for command in ("train", "sweep"))
        synth = parser.parse_args(["synth"])
        rb = build_rulebase(InitConfig(n_rules=1), [(0.0, 1.0)])
        for args in (train, sweep):
            for name in ("seed", "max_epochs", "batch_size", "patience",
                         "eta_cons", "eta_ant", "lambda_l1", "lambda_l2"):
                assert getattr(args, name) == getattr(TrainConfig(), name)
            assert args.alpha == InitConfig(n_rules=1).alpha
            assert args.q == rb.q
        spec = SyntheticSpec()
        assert (synth.synth_samples, synth.synth_features,
                synth.synth_latent_rules, synth.synth_noise, synth.seed) == (
            spec.n_samples, spec.n_features, spec.n_latent_rules,
            spec.noise_std, spec.seed)
        grid = SweepConfig()
        assert tuple(range(sweep.rules_min, sweep.rules_max + 1)) \
            == grid.rule_counts
        assert (sweep.seeds, sweep.parallelism, sweep.seed) == (
            grid.n_seeds, grid.parallelism, grid.seed_base)
        assert [LABEL_MODES[m] for m in sweep.modes.split(",")] \
            == list(grid.modes)
        assert (sweep.alpha, sweep.q) == (grid.alpha, grid.q)
