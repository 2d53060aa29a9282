"""End-to-end command-line flows against generated CSV data."""

from __future__ import annotations

import contextlib
import csv
import io
import json
import math
import re
import xml.etree.ElementTree as ET

import numpy as np
import pytest

from it2anfis import core
from it2anfis.cli import PREDICTION_COLUMNS, main
from it2anfis.dataset import load_csv, normalize_and_split


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
        assert re.search(r"^backend=numpy mode=it2 rules=3 seed=3 "
                         r"epochs_run=8 best_val_mse_std=", stdout,
                         re.MULTILINE)
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
        code = main(["train"])
        assert code == 1
        assert "--data or --synthetic" in capsys.readouterr().err

    def test_unknown_mode_rejected_by_parser(self):
        with pytest.raises(SystemExit):
            main(["train", "--synthetic", "--mode", "type3"])


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

    def test_bad_mode_token_fails(self, workspace, capsys):
        code = main(["sweep", "--data", str(workspace["data"]),
                     "--modes", "it2,bogus",
                     "--out", str(workspace["root"] / "s.csv")])
        assert code == 1
        assert "bogus" in capsys.readouterr().err

    def test_too_many_seeds_fails(self, workspace, capsys):
        out = workspace["root"] / "many.csv"
        code = main(["sweep", "--data", str(workspace["data"]),
                     "--rules-list", "2", "--seeds", "101",
                     "--max-epochs", "1", "--out", str(out)])
        assert code == 1
        assert "n_seeds must be <= 100" in capsys.readouterr().err
        assert not out.exists()


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

    def test_expected_shape(self, tmp_path):
        out = tmp_path / "s.csv"
        _run(["synth", "--out", str(out), "--seed", "1",
              "--synth-samples", "40", "--synth-features", "4"])
        with out.open(newline="") as handle:
            rows = list(csv.reader(handle))
        assert rows[0] == ["x1", "x2", "x3", "x4", "energy_mwh"]
        assert len(rows) == 41
