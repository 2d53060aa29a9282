"""Tests of the benchmark's own code: helpers, metric names, smoke runs.

Run with: python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import stats  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def test_metric_and_workload_names_are_valid_and_unique():
    names = [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
    names += [w["name"] for w in SPEC["workloads"]]
    assert all(stats.valid_metric_name(n) for n in names)
    assert len(names) == len(set(names))
    assert sorted(w["name"] for w in SPEC["workloads"]) == sorted(
        workloads.WORKLOADS)


@pytest.mark.parametrize("bad", ["", "op ms", "a/b", "x{1}", "rows_per_s\n"])
def test_metric_name_rejects(bad):
    assert not stats.valid_metric_name(bad)


def test_every_metric_is_documented():
    doc = (BENCH / "README.md").read_text(encoding="utf-8")
    for m in SPEC["end_to_end"] + SPEC["per_layer"]:
        assert f"`{m['name']}`" in doc, m["name"]


@pytest.mark.parametrize("q", [0, 10, 25, 50, 90, 99, 100])
def test_percentile_matches_numpy(q):
    values = np.random.default_rng(q).normal(size=37)
    assert stats.percentile(values, q) == pytest.approx(
        np.percentile(values, q), rel=1e-12)


def test_percentile_edges():
    assert stats.percentile([4.0], 90) == 4.0
    assert stats.median([3, 1, 2, 10]) == 2.5
    with pytest.raises(ValueError):
        stats.percentile([], 50)
    with pytest.raises(ValueError):
        stats.percentile([1.0], 101)


def test_iqr_ratio_uses_statistics_quantiles():
    values = [10.0, 11.0, 9.5, 10.2, 30.0, 10.1, 9.9]
    q1, _, q3 = statistics.quantiles(values, n=4)
    assert stats.iqr_ratio(values) == (q3 - q1) / statistics.median(values)
    assert stats.iqr_ratio([5.0, 5.0, 5.0]) == 0.0
    with pytest.raises(ValueError):
        stats.iqr_ratio([1.0])
    with pytest.raises(ValueError):
        stats.iqr_ratio([-1.0, 0.0, 1.0])


def test_fail_ratio_counting():
    assert stats.count_failures([True, False, True, True]) == (4, 1)
    assert stats.count_failures([]) == (0, 0)
    assert stats.fail_ratio(4, 1) == 0.25
    assert stats.fail_ratio(3, 0) == 0.0
    with pytest.raises(ValueError):
        stats.fail_ratio(0, 0)
    with pytest.raises(ValueError):
        stats.fail_ratio(2, 3)


@pytest.mark.parametrize("trace", [False, True])
@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_smoke_run(name, trace, tmp_path):
    out = workloads.run(name, seed=3, seconds=0.01, trace=trace,
                        workdir=tmp_path, sizes="smoke")
    wanted = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    got = out.layers if trace else out.end_to_end
    assert sorted(got) == sorted(m["name"] for m in wanted)
    assert all(np.isfinite(v) for v in got.values())
    assert out.checks and all(out.checks.values()), out.checks
    assert out.attempted >= 1 and out.failed == 0
    assert len(out.parity) == 1


def test_run_fails_without_package_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", "results",
                                                  "work"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "train-r50",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
