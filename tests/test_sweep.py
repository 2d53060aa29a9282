"""Benchmark grid: seeding, determinism, failure isolation, outputs."""

from __future__ import annotations

import csv
import importlib
import math
import os
import subprocess
import sys
import xml.etree.ElementTree as ET
from dataclasses import replace
from pathlib import Path

import pytest

import numpy as np

import it2anfis
from it2anfis.core import Mode
from it2anfis.dataset import RawTable, SyntheticSpec, generate_synthetic
from it2anfis.metrics import MetricSet
from it2anfis.sweep import (CSV_COLUMNS, LABEL_MODES, MODE_LABELS,
                            AggregateRow, RunResult, SweepConfig, aggregate,
                            render_sweep_svg, run_seed, run_single,
                            summary_dict, sweep, write_csv)
from it2anfis.trainer import TrainConfig


def _small_raw(n=80, seed=9):
    return generate_synthetic(SyntheticSpec(n_samples=n, n_features=2,
                                            n_latent_rules=2,
                                            noise_std=0.05, seed=seed))


def _unsplittable_raw():
    """Six rows: too few for the split, so every training run fails."""
    rng = np.random.default_rng(0)
    rows = np.column_stack([rng.random((6, 2)), rng.random(6) + 1.0])
    return RawTable(column_names=["x1", "x2", "energy_mwh"], rows=rows,
                    target_column="energy_mwh")


def _fast_cfg(**kwargs):
    grid = dict(rule_counts=(2, 3), n_seeds=2,
                modes=(Mode.IT2, Mode.TYPE1_ORDER1))
    grid.update(kwargs)
    return SweepConfig(**grid)


FAST_TRAIN = TrainConfig(max_epochs=3, patience=10)


def _rows_without_wall(results):
    rows = []
    for r in results:
        cells = r.csv_row()
        rows.append(cells[:8] + cells[9:])
    return rows


class TestRunSeed:
    def test_formula(self):
        assert run_seed(3, 7, 4) == 30_704
        assert run_seed(0, 5, 0) == 500

    def test_unique_over_full_grid(self):
        seeds = {run_seed(0, r, s)
                 for r in range(5, 51) for s in range(10)}
        assert len(seeds) == 46 * 10

    def test_adding_rule_counts_never_shifts_existing(self):
        before = [run_seed(1, r, s) for r in (5, 7) for s in range(3)]
        after = [run_seed(1, r, s) for r in (5, 6, 7) for s in range(3)
                 if r != 6]
        assert before == after


class TestSweepGrid:
    def test_row_count_and_order(self):
        results = sweep(_small_raw(), _fast_cfg(), FAST_TRAIN)
        assert len(results) == 2 * 2 * 2
        keys = [(r.mode, r.rules, r.seed) for r in results]
        assert keys == sorted(keys)
        assert {r.mode for r in results} == {"it2", "anfis1"}
        assert all(r.status == "ok" for r in results)

    def test_deterministic_up_to_wall_time(self):
        a = sweep(_small_raw(), _fast_cfg(), FAST_TRAIN)
        b = sweep(_small_raw(), _fast_cfg(), FAST_TRAIN)
        assert _rows_without_wall(a) == _rows_without_wall(b)

    def test_parallel_matches_serial(self):
        serial = sweep(_small_raw(), _fast_cfg(parallelism=1), FAST_TRAIN)
        parallel = sweep(_small_raw(), _fast_cfg(parallelism=3), FAST_TRAIN)
        assert _rows_without_wall(serial) == _rows_without_wall(parallel)

    def test_pool_never_larger_than_the_grid(self, monkeypatch):
        sweep_module = importlib.import_module("it2anfis.sweep")
        made = []

        class RecordingPool:
            """Runs the cells in this process; records the worker count."""

            def __init__(self, max_workers, initializer, initargs):
                made.append(max_workers)
                initializer(*initargs)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, cells):
                return map(fn, cells)

        monkeypatch.setattr(sweep_module, "ProcessPoolExecutor",
                            RecordingPool)
        monkeypatch.setattr(sweep_module, "_worker_raw", None)
        raw = _small_raw()
        # (parallelism, grid, the pool's workers: none for one cell)
        for parallelism, grid, workers in (
                (4, dict(rule_counts=(2,), n_seeds=1, modes=(Mode.IT2,)),
                 []),
                (4, dict(rule_counts=(2,), n_seeds=2, modes=(Mode.IT2,)),
                 [2]),
                (2, {}, [2])):
            made.clear()
            cfg = _fast_cfg(parallelism=parallelism, **grid)
            rows = _rows_without_wall(sweep(raw, cfg, FAST_TRAIN))
            assert made == workers, (parallelism, grid)
            serial = sweep(raw, replace(cfg, parallelism=1), FAST_TRAIN)
            assert rows == _rows_without_wall(serial)

    def test_import_loads_no_multiprocessing(self):
        src = str(Path(it2anfis.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            filter(None, (src, os.environ.get("PYTHONPATH"))))}
        code = ("import sys, it2anfis.cli; "
                "print(sorted(m for m in sys.modules "
                "if m.split('.')[0] == 'multiprocessing'))")
        done = subprocess.run([sys.executable, "-c", code], env=env,
                              capture_output=True, text=True, timeout=120)
        assert done.returncode == 0, done.stderr
        assert done.stdout.strip() == "[]"

    def test_failures_isolated_per_row(self):
        # 6 rows cannot be split into non-empty train/val/test pieces,
        # so every cell fails, and the grid still reports them all
        results = sweep(_unsplittable_raw(), _fast_cfg(), FAST_TRAIN)
        assert len(results) == 8
        for r in results:
            assert r.status.startswith("error:")
            assert r.test is None
            assert math.isnan(r.val_mse)

    def test_failed_cell_records_message(self):
        result = run_single(_unsplittable_raw(), Mode.IT2, rules=2,
                            seed_index=0, cfg=_fast_cfg(),
                            train_cfg=FAST_TRAIN)
        assert result.status.startswith("error:")
        assert len(result.status) > len("error: ")

    def test_mode_labels_bijective(self):
        assert set(MODE_LABELS) == set(Mode)
        for mode, label in MODE_LABELS.items():
            assert LABEL_MODES[label] is mode

    def test_config_validation(self):
        with pytest.raises(ValueError):
            SweepConfig(rule_counts=()).validate()
        with pytest.raises(ValueError):
            SweepConfig(rule_counts=(0,)).validate()
        with pytest.raises(ValueError):
            SweepConfig(n_seeds=0).validate()
        with pytest.raises(ValueError):
            SweepConfig(modes=()).validate()
        with pytest.raises(ValueError):
            SweepConfig(parallelism=0).validate()

    @pytest.mark.parametrize("grid, message", [
        (dict(rule_counts=(3, 4, 3)), "rule_counts repeats 3"),
        (dict(modes=(Mode.IT2, Mode.TYPE1_ORDER1, Mode.IT2)),
         "modes repeats 'it2'"),
    ], ids=["rules", "mode"])
    def test_repeated_grid_cell_rejected(self, grid, message):
        # a repeated rule count or mode would train the same cells twice
        # and write duplicate rows
        with pytest.raises(ValueError, match=message):
            SweepConfig(**grid).validate()

    def test_seed_count_capped_where_run_seeds_stay_distinct(self):
        SweepConfig(n_seeds=100).validate()
        # index 100 of R would reuse index 0 of R + 1: run_seed(0, 5, 100)
        # and run_seed(0, 6, 0) are both 600
        assert run_seed(0, 5, 100) == run_seed(0, 6, 0)
        with pytest.raises(ValueError, match="n_seeds must be <= 100"):
            SweepConfig(n_seeds=101).validate()


def _ok_row(mode="it2", rules=5, seed=0, mse=1.0):
    metric = MetricSet(mse=mse, rmse=math.sqrt(mse), mae=mse / 2,
                       mape=5.0)
    return RunResult(mode=mode, rules=rules, seed=seed, test=metric,
                     val_mse=mse * 1.1, wall_ms=12.0)


def _bad_row(mode="it2", rules=5, seed=0):
    return RunResult(mode=mode, rules=rules, seed=seed, test=None,
                     val_mse=math.nan, wall_ms=3.0,
                     status="error: boom")


class TestAggregate:
    def test_group_statistics(self):
        rows = [_ok_row(seed=0, mse=1.0), _ok_row(seed=1, mse=2.0),
                _ok_row(seed=2, mse=6.0), _bad_row(seed=3)]
        agg = aggregate(rows)
        assert len(agg) == 1
        a = agg[0]
        assert (a.mode, a.rules, a.n_ok) == ("it2", 5, 3)
        assert a.mean_test_mse == pytest.approx(3.0)
        assert a.min_test_mse == 1.0
        assert a.max_test_mse == 6.0
        assert a.min_test_mse <= a.mean_test_mse <= a.max_test_mse

    def test_all_failed_group_is_nan(self):
        agg = aggregate([_bad_row(rules=7), _bad_row(rules=7, seed=1)])
        assert agg[0].n_ok == 0
        assert math.isnan(agg[0].mean_test_mse)

    def test_groups_sorted(self):
        rows = [_ok_row(mode="it2", rules=7), _ok_row(mode="anfis0",
                                                      rules=5)]
        agg = aggregate(rows)
        assert [(a.mode, a.rules) for a in agg] == [("anfis0", 5),
                                                    ("it2", 7)]

    def test_summary_dict(self):
        rows = [_ok_row(), _bad_row(seed=1)]
        doc = summary_dict(rows)
        assert doc["n_runs"] == 2
        assert doc["n_failed"] == 1
        assert doc["aggregates"][0]["n_ok"] == 1


class TestWriteCsv:
    def test_header_and_cells(self, tmp_path):
        path = tmp_path / "grid.csv"
        write_csv([_ok_row(), _bad_row(seed=1)], path)
        with path.open(newline="") as handle:
            rows = list(csv.reader(handle))
        assert rows[0] == list(CSV_COLUMNS)
        assert len(rows) == 3
        ok = dict(zip(CSV_COLUMNS, rows[1]))
        assert ok["mode"] == "it2"
        assert ok["rules"] == "5"
        assert float(ok["test_mse"]) == 1.0
        assert ok["status"] == "ok"
        bad = dict(zip(CSV_COLUMNS, rows[2]))
        assert math.isnan(float(bad["test_mse"]))
        assert bad["status"] == "error: boom"

    def test_full_precision_cells(self, tmp_path):
        path = tmp_path / "grid.csv"
        write_csv([_ok_row(mse=1.0 / 3.0)], path)
        with path.open(newline="") as handle:
            row = list(csv.reader(handle))[1]
        assert float(dict(zip(CSV_COLUMNS, row))["test_mse"]) == 1.0 / 3.0


class TestRenderSweepSvg:
    def _aggs(self):
        return [AggregateRow("it2", 5, 3, 2.0, 1.0, 4.0),
                AggregateRow("it2", 10, 3, 1.5, 0.8, 2.5),
                AggregateRow("anfis1", 5, 3, 3.0, 2.0, 5.0),
                AggregateRow("anfis1", 10, 3, 2.5, 1.5, 3.5)]

    def test_wellformed_with_band_and_line_per_mode(self):
        root = ET.fromstring(render_sweep_svg(self._aggs()))
        tags = [el.tag.rsplit("}", 1)[-1] for el in root.iter()]
        assert tags.count("polygon") == 2
        assert tags.count("polyline") == 2
        text = ET.tostring(root, encoding="unicode")
        assert "it2" in text and "anfis1" in text

    def test_empty_input_renders_notice(self):
        svg = render_sweep_svg([])
        assert "no successful runs" in svg
        ET.fromstring(svg)

    def test_failed_only_groups_excluded(self):
        aggs = [AggregateRow("it2", 5, 0, math.nan, math.nan, math.nan)]
        svg = render_sweep_svg(aggs)
        assert "no successful runs" in svg

    def test_degenerate_ranges_handled(self):
        aggs = [AggregateRow("it2", 5, 2, 1.0, 1.0, 1.0)]
        root = ET.fromstring(render_sweep_svg(aggs))
        assert root is not None
