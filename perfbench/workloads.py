"""The three benchmark workloads, run in a fresh process by ``run.py``.

Each workload sets up its inputs from the workload seed, then repeats
its unit of work until the time budget is spent, checks the outputs,
and runs the parity check against ``reference.json``.  With tracing on
it instead runs its unit untraced, traced, and untraced again, takes
small tours of the paths it does not exercise itself, and times direct
calls into the kernels and the forward pass, so every per-layer metric
exists in every workload.  The package is driven only through its
public functions; nothing under ``src/`` is touched.

Usage (normally through run.py, which sets the process environment):
    python3 perfbench/workloads.py --workload NAME --seed N \\
        --seconds S --trace 0|1 --workdir DIR --result FILE
    python3 perfbench/workloads.py --setup-only --workload NAME --seed N \\
        --workdir DIR
    python3 perfbench/workloads.py --write-reference --workdir DIR
"""

from __future__ import annotations

import argparse
import contextlib
import importlib
import io
import json
import math
import os
import resource
import subprocess
import sys
import time
import tracemalloc
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
if not (SRC / "it2anfis" / "__init__.py").is_file():
    raise ImportError(f"package sources not found under {SRC}")
sys.path.insert(0, str(SRC))

import numpy as np  # noqa: E402

import it2anfis  # noqa: E402
from it2anfis import (cli, core, dataset, initializer,  # noqa: E402
                      kernels, metrics, modelio, trainer)
from it2anfis.core import Mode  # noqa: E402
from it2anfis.dataset import RawTable, SyntheticSpec  # noqa: E402
from it2anfis.initializer import InitConfig  # noqa: E402
from it2anfis.sweep import SweepConfig  # noqa: E402
from it2anfis.trainer import TrainConfig, TrainingDiverged  # noqa: E402

# ``it2anfis.sweep`` is shadowed by the function of that name on the package
sweeps = importlib.import_module("it2anfis.sweep")

from spans import Tracer  # noqa: E402
from stats import (count_failures, fail_ratio, iqr_ratio,  # noqa: E402
                   median, percentile)

if Path(it2anfis.__file__).resolve().parent != (SRC / "it2anfis").resolve():
    raise ImportError(f"it2anfis imported from {it2anfis.__file__}, "
                      f"not from {SRC}")

REFERENCE = HERE / "reference.json"

#: parity inputs are fixed, independent of the workload seed and sizes
PARITY_SEED = 20260117
PARITY_TABLE_ROWS = 2000
PARITY_SERVE_ROWS = 256
PARITY_SWEEP_EPOCHS = 2
PARITY_TRAIN_EPOCHS = 3
#: parity fails beyond this difference, relative to max(1, |reference|);
#: roundoff-level refactors stay many orders of magnitude below it
PARITY_RTOL = 1e-7

#: epochs of the small sweep run by the tours of the other workloads
TOUR_SWEEP_EPOCHS = 2
#: direct-call repeats of the kernel and forward-pass probes
PROBE_REPEATS_B64 = 50
PROBE_REPEATS_SPLIT = 8
FALLBACK_CHUNK_ROWS = 10_000


def nproc() -> int:
    return len(os.sched_getaffinity(0))


@dataclass(frozen=True)
class Sizes:
    """Problem sizes; ``FULL`` is the benchmark, ``SMOKE`` the self-test."""

    table_rows: int = 2000
    sweep_rules: tuple[int, ...] = (5, 7, 10)
    sweep_seeds: int = 2
    sweep_epochs: int = 10
    train_rules: int = 50
    train_epochs: int = 25
    serve_rules: int = 50
    serve_train_epochs: int = 3
    serve_rows: int = 5000
    explain_rows: int = 500
    setup_repeats: int = 7
    serve_setup_repeats: int = 5


FULL = Sizes()
SMOKE = Sizes(table_rows=300, sweep_rules=(3,), sweep_epochs=2,
              train_rules=4, train_epochs=3, serve_rules=4,
              serve_train_epochs=2, serve_rows=600, explain_rows=40,
              setup_repeats=2, serve_setup_repeats=2)
SIZES = {"full": FULL, "smoke": SMOKE}
#: a set-up process that takes longer than this has hung
SETUP_TIMEOUT_S = 60


@dataclass
class Outcome:
    """What one run of a workload hands back to run.py."""

    end_to_end: dict[str, float] = field(default_factory=dict)
    named: dict[str, tuple[float, str]] = field(default_factory=dict)
    layers: dict[str, float] = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    checks: dict[str, bool] = field(default_factory=dict)
    parity: dict[str, float | None] = field(default_factory=dict)
    notes: dict[str, object] = field(default_factory=dict)


# --- shared helpers ---------------------------------------------------------

def peak_rss_mb() -> float:
    """Largest resident set of this process or any finished child, in MB."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, kids) / 1024.0


def run_for(seconds: float, unit, least: int = 1) -> list:
    """Repeat ``unit`` at least ``least`` times, and again while it fits."""
    outs = []
    started = time.perf_counter()
    while True:
        out, last = timed(unit)
        outs.append(out)
        if (len(outs) >= least
                and time.perf_counter() - started + last > seconds):
            return outs


def timed(fn):
    """(result, seconds) of one call."""
    t0 = time.perf_counter()
    result = fn()
    return result, time.perf_counter() - t0


def fixed_epochs(epochs: int, seed: int = 0) -> TrainConfig:
    """Patience equal to the epoch count, so every run does the same work."""
    return TrainConfig(max_epochs=epochs, patience=epochs, seed=seed)


def table(rows: int, seed: int) -> RawTable:
    spec = SyntheticSpec(n_samples=rows, seed=seed)
    return dataset.generate_synthetic(spec)


def head(raw: RawTable, rows: int) -> RawTable:
    return RawTable(column_names=raw.column_names, rows=raw.rows[:rows],
                    target_column=raw.target_column)


def tail(raw: RawTable, rows: int) -> RawTable:
    return RawTable(column_names=raw.column_names, rows=raw.rows[-rows:],
                    target_column=raw.target_column)


def write_csv(raw: RawTable, path: Path) -> None:
    np.savetxt(path, raw.rows, fmt="%.17g", delimiter=",",
               header=",".join(raw.column_names), comments="")


def initial_rulebase(data, rules: int, seed: int):
    ranges = initializer.ranges_from_training(data.X, data.train_idx)
    return initializer.build_rulebase(InitConfig(n_rules=rules, seed=seed),
                                      ranges)


def split_val_mse(rb, data) -> float:
    """Validation MSE in target units."""
    X, y = data.subset(data.val_idx)
    _, _, y_p = core.predict_arrays(rb, X)
    ts = data.target_scaler
    return metrics.evaluate(dataset.inverse_target(y, ts),
                            dataset.inverse_target(y_p, ts)).mse


def run_cli(argv: list[str]) -> tuple[int, str, float]:
    """``cli.main`` with its output captured: (exit code, stdout, seconds)."""
    out, err = io.StringIO(), io.StringIO()
    t0 = time.perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    seconds = time.perf_counter() - t0
    if code != 0:
        sys.stderr.write(f"cli {argv[0]} exited {code}: {err.getvalue()}")
    return code, out.getvalue(), seconds


def serve_model_matrix(model_path: Path, raw: RawTable):
    """The saved model and ``raw``'s features scaled for it."""
    rb, f_scalers, _, _ = modelio.load_model(model_path)
    cols = [raw.column_names.index(s.name) for s in f_scalers]
    X = np.empty((raw.n_rows, len(cols)))
    for k, scaler in enumerate(f_scalers):
        X[:, k] = scaler.transform(raw.rows[:, cols[k]])
    return rb, X


def op_metrics(out: Outcome, samples_ms: list[float], what: str) -> None:
    """Percentiles of the workload's repeated operation, with their spread.

    ``what`` names the operation in the sample count (cells, epochs,
    commands), which the results file keeps next to the percentiles.
    """
    out.end_to_end["op_ms_p50"] = percentile(samples_ms, 50)
    out.end_to_end["op_ms_p90"] = percentile(samples_ms, 90)
    out.named[what] = (len(samples_ms), "count")
    if len(samples_ms) > 1:
        out.named["op_ms_iqr_ratio"] = (iqr_ratio(samples_ms), "ratio")


def read_predictions(path: Path) -> np.ndarray:
    return np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)


# --- parity -----------------------------------------------------------------

def parity_tables() -> tuple[RawTable, RawTable]:
    full = table(PARITY_TABLE_ROWS + PARITY_SERVE_ROWS, PARITY_SEED)
    return head(full, PARITY_TABLE_ROWS), tail(full, PARITY_SERVE_ROWS)


def parity_sweep_cells() -> list[float]:
    raw, _ = parity_tables()
    cfg = SweepConfig(rule_counts=FULL.sweep_rules, n_seeds=FULL.sweep_seeds,
                      modes=(Mode.IT2, Mode.TYPE1_ORDER1),
                      parallelism=nproc(), seed_base=PARITY_SEED % 1000)
    rows = sweeps.sweep(raw, cfg, fixed_epochs(PARITY_SWEEP_EPOCHS))
    return [r.test.mse if r.status == "ok" else math.nan for r in rows]


def parity_model():
    raw, _ = parity_tables()
    data = dataset.normalize_and_split(raw, PARITY_SEED)
    rb = initial_rulebase(data, FULL.train_rules, PARITY_SEED)
    best, _ = trainer.train(rb, data,
                            fixed_epochs(PARITY_TRAIN_EPOCHS, PARITY_SEED))
    return best, data


def parity_train_val_mse() -> float:
    best, data = parity_model()
    return split_val_mse(best, data)


def parity_serve_predictions(workdir: Path) -> list[list[float]]:
    best, data = parity_model()
    _, serve_raw = parity_tables()
    model = workdir / "parity_model.json"
    rows_csv = workdir / "parity_rows.csv"
    preds = workdir / "parity_predictions.csv"
    modelio.save_model(best, model, data.feature_scalers, data.target_scaler)
    write_csv(serve_raw, rows_csv)
    code, _, _ = run_cli(["predict", "--model", str(model), "--data",
                          str(rows_csv), "--out", str(preds)])
    if code != 0:
        return []
    return read_predictions(preds)[:, 1:4].tolist()


def compare(name: str, got, want, out: Outcome) -> None:
    """Record the largest absolute difference; fail on shape or tolerance."""
    got = np.asarray(got, dtype=np.float64)
    want = np.asarray(want, dtype=np.float64)
    shape_ok = got.shape == want.shape
    finite = bool(np.all(np.isfinite(got)))
    out.checks[f"parity.{name}.rows"] = shape_ok
    out.checks[f"parity.{name}.finite"] = finite
    if not (shape_ok and finite):
        out.parity[name] = None
        return
    diff = float(np.max(np.abs(got - want))) if got.size else 0.0
    scale = max(1.0, float(np.max(np.abs(want))) if want.size else 1.0)
    out.parity[name] = diff
    out.checks[f"parity.{name}.within_rtol"] = diff <= PARITY_RTOL * scale


def load_reference() -> dict:
    return json.loads(REFERENCE.read_text(encoding="utf-8"))


def write_reference(workdir: Path) -> dict:
    doc = {
        "parity_seed": PARITY_SEED,
        "backend": kernels.active_backend(),
        "numpy": np.__version__,
        "sweep_cell_test_mse": parity_sweep_cells(),
        "train_val_mse": parity_train_val_mse(),
        "serve_predictions": parity_serve_predictions(workdir),
    }
    REFERENCE.write_text(json.dumps(doc, indent=1) + "\n", encoding="utf-8")
    return doc


# --- per-layer metrics from spans and direct probes ------------------------

def trainer_layers(tracer: Tracer) -> dict[str, float]:
    """Per-epoch attribution of traced ``train`` calls.

    Epoch k (k >= 2) runs between the epoch-callback marks k-1 and k;
    the first epoch also holds the loop's set-up and is skipped.
    """
    by_parent: dict[int, list] = {}
    for span in tracer.spans:
        by_parent.setdefault(span.parent, []).append(span)
    cons, ant, evals, batches, selfs = [], [], [], [], []
    for index, span in enumerate(tracer.spans):
        if span.name != "trainer.train":
            continue
        marks = [m for m in tracer.marks if span.start <= m <= span.end]
        kids = by_parent.get(index, [])
        for lo, hi in zip(marks, marks[1:]):
            inside = [k for k in kids if lo <= k.start and k.end <= hi]
            cg = [k for k in inside
                  if k.name == "trainer.consequent_gradients"]
            cu = [k for k in inside
                  if k.name == "trainer.apply_consequent_update"]
            cons.extend(a.ms + b.ms for a, b in zip(cg, cu))
            ant.append(sum(k.ms for k in inside if k.name in (
                "trainer.antecedent_gradients",
                "trainer.apply_antecedent_update")))
            evals.append(sum(k.ms for k in inside
                             if k.name == "core.predict_arrays"))
            batches.append(len(cg))
            selfs.append((hi - lo) * 1e3 - sum(k.ms for k in inside))
    return {
        "trainer.consequent_step_ms": median(cons),
        "trainer.antecedent_step_ms": median(ant),
        "trainer.eval_ms": median(evals),
        "trainer.batches_per_epoch": median(batches),
        "trainer.self_ms": median(selfs),
    }


def sweep_layers(tracer: Tracer, rows, parallelism: int) -> dict[str, float]:
    spans = tracer.select("sweep.sweep")
    wall_ms = sum(s.ms for s in spans)
    cell_ms = [r.wall_ms for r in rows]
    return {
        "sweep.cell_ms_p50": median(cell_ms),
        "sweep.worker_busy_ratio": sum(cell_ms) / (wall_ms * parallelism),
        "sweep.pickle_bytes_per_cell": tracer.pool_bytes / len(rows),
    }


def serve_layers(tracer: Tracer, csv_rows: int) -> dict[str, float]:
    """CLI-side layers, from the spans of traced predict/evaluate/explain."""
    self_ms = []
    for span in tracer.select("cli.main", "cli.predict"):
        inner = tracer.descendants(span)
        attributed = sum(s.ms for s in inner if s.name in (
            "modelio.load_model", "core.predict_arrays"))
        self_ms.append(span.ms - attributed)
    loads = tracer.select("dataset.load_csv", "cli.evaluate")
    return {
        "cli.predict_self_ms": median(self_ms),
        "dataset.load_csv_rows_per_s":
            csv_rows / (median([s.ms for s in loads]) / 1e3),
        "modelio.load_model_ms":
            median([s.ms for s in tracer.select("modelio.load_model")]),
        "explainer.explain_model_ms":
            median([s.ms for s in tracer.select("explainer.explain_model")]),
        "explainer.explain_instance_us": 1e3 * median(
            [s.ms for s in tracer.select("explainer.explain_instance")]),
        "metrics.evaluate_ms": median(
            [s.ms for s in tracer.select("metrics.evaluate", "cli.evaluate")]),
    }


def setup_layers(tracer: Tracer) -> dict[str, float]:
    return {
        "initializer.build_rulebase_ms": median(
            [s.ms for s in tracer.select("initializer.build_rulebase")]),
        "dataset.normalize_and_split_ms": median(
            [s.ms for s in tracer.select("dataset.normalize_and_split")]),
    }


def peak_alloc_mb(fn, *args) -> float:
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        fn(*args)
        return tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()


def kernel_layers(tracer: Tracer, rb, X_train, y_train,
                  X_serve) -> dict[str, float]:
    """Direct calls into kernels and core at the workload's rule count.

    ``b64`` is one mini-batch, ``split`` the training split, ``serve``
    the workload's largest inference input in a single call.
    """
    X64 = np.ascontiguousarray(X_train[:64])
    Xtr = np.ascontiguousarray(X_train)
    ytr = np.ascontiguousarray(y_train)
    params = (rb.c1, rb.c2, rb.sigma)
    grad_args = (Xtr, ytr, *params, rb.w, rb.b, rb.q,
                 kernels.STRENGTH_FLOOR)
    with tracer.in_scope("b64"):
        for _ in range(PROBE_REPEATS_B64):
            kernels.fire(X64, *params)
            core.predict_arrays(rb, X64)
    with tracer.in_scope("split"):
        for _ in range(PROBE_REPEATS_SPLIT):
            kernels.fire(Xtr, *params)
            core.predict_arrays(rb, Xtr)
            kernels.ant_grads(*grad_args)
    with tracer.in_scope("serve"):
        core.predict_arrays(rb, X_serve)
    with tracer.in_scope("alloc"):
        ant_alloc = peak_alloc_mb(kernels.ant_grads, *grad_args)
        serve_alloc = peak_alloc_mb(core.predict_arrays, rb, X_serve)
    fallback = 0
    with tracer.in_scope("fallback"):
        for lo in range(0, X_serve.shape[0], FALLBACK_CHUNK_ROWS):
            mu_l, _ = kernels.fire(X_serve[lo:lo + FALLBACK_CHUNK_ROWS],
                                   *params)
            fallback += int(np.sum(mu_l.sum(axis=1)
                                   < kernels.STRENGTH_FLOOR))

    def ms(name, scope):
        # top-level calls only: predict_arrays' own fire call is nested
        return median([s.ms for s in tracer.select(name, scope)
                       if s.parent == -1])

    serve_s = ms("core.predict_arrays", "serve") / 1e3
    return {
        "kernels.fire_ms.b64": ms("kernels.fire", "b64"),
        "kernels.fire_ms.split": ms("kernels.fire", "split"),
        "kernels.ant_grads_ms.split": ms("kernels.ant_grads", "split"),
        "kernels.ant_grads_peak_alloc_mb": ant_alloc,
        "core.predict_arrays_ms.b64": ms("core.predict_arrays", "b64"),
        "core.predict_arrays_ms.split": ms("core.predict_arrays", "split"),
        "core.predict_arrays_rows_per_s.serve": X_serve.shape[0] / serve_s,
        "core.predict_arrays_peak_alloc_mb.serve": serve_alloc,
        "core.fallback_row_ratio": fallback / X_serve.shape[0],
    }


# --- the workloads ----------------------------------------------------------

class SweepSmall:
    """sweep() over R x seeds x {it2, anfis1} with a process pool."""

    name = "sweep-small"
    warmup_units = 0

    def __init__(self, sizes: Sizes, seed: int, workdir: Path):
        self.sizes, self.seed, self.workdir = sizes, seed, workdir
        self.parallelism = nproc()
        self.rules = sizes.sweep_rules[len(sizes.sweep_rules) // 2]
        self.setup_repeats = sizes.setup_repeats
        self.raw = None

    def setup(self, tracer=None) -> None:
        self.raw = table(self.sizes.table_rows, self.seed)

    def config(self) -> SweepConfig:
        return SweepConfig(rule_counts=self.sizes.sweep_rules,
                           n_seeds=self.sizes.sweep_seeds,
                           modes=(Mode.IT2, Mode.TYPE1_ORDER1),
                           parallelism=self.parallelism,
                           seed_base=self.seed % 1000)

    def unit(self, tracer=None):
        t0 = time.perf_counter()
        rows = sweeps.sweep(self.raw, self.config(),
                            fixed_epochs(self.sizes.sweep_epochs))
        return time.perf_counter() - t0, rows

    def summarize(self, units, out: Outcome) -> None:
        s = self.sizes
        n_train = dataset.split_sizes(s.table_rows)[0]
        rows = [r for _, batch in units for r in batch]
        wall = sum(w for w, _ in units)
        out.attempted, out.failed = count_failures(
            r.status == "ok" for r in rows)
        ok = [r for r in rows if r.status == "ok"]
        cells = len(s.sweep_rules) * s.sweep_seeds * 2
        first = [r.test.mse if r.test else math.nan for r in units[0][1]]
        out.checks["sweep.rows"] = all(len(b) == cells for _, b in units)
        out.checks["sweep.finite"] = all(math.isfinite(v) for v in first)
        out.checks["sweep.repeatable"] = all(
            [r.test.mse if r.test else math.nan for r in b] == first
            for _, b in units)
        out.end_to_end["rows_per_s"] = (len(ok) * s.sweep_epochs * n_train
                                        / wall)
        op_metrics(out, [r.wall_ms for r in rows], "cells")
        out.named.update({
            "sweep_cells_per_min": (60.0 * len(rows) / wall, "1/min"),
            "sweep_test_mse": (float(np.mean(first)), "MWh^2"),
        })

    def parity(self, reference: dict, out: Outcome) -> None:
        compare("sweep_cell_test_mse", parity_sweep_cells(),
                reference["sweep_cell_test_mse"], out)

    def tour(self, tracer: Tracer, units) -> dict[str, float]:
        data = dataset.normalize_and_split(self.raw, self.seed)
        rb = initial_rulebase(data, self.rules, self.seed)
        best, _ = trainer.train(
            rb, data, fixed_epochs(self.sizes.sweep_epochs, self.seed),
            epoch_callback=tracer.mark)
        layers = trainer_layers(tracer)
        layers.update(setup_layers(tracer))
        layers.update(sweep_layers(tracer, units[-1][1], self.parallelism))
        layers.update(mini_serve(tracer, self, best, data, self.raw))
        layers.update(kernel_layers(tracer, best,
                                    *data.subset(data.train_idx), data.X))
        return layers


class TrainR50:
    """One train() at R=50 in it2 mode for a fixed number of epochs."""

    name = "train-r50"
    warmup_units = 0

    def __init__(self, sizes: Sizes, seed: int, workdir: Path):
        self.sizes, self.seed, self.workdir = sizes, seed, workdir
        self.rules = sizes.train_rules
        self.setup_repeats = sizes.setup_repeats
        self.data = self.rb0 = self.best = None

    def setup(self, tracer=None) -> None:
        raw = table(self.sizes.table_rows, self.seed)
        self.raw = raw
        self.data = dataset.normalize_and_split(raw, self.seed)
        self.rb0 = initial_rulebase(self.data, self.rules, self.seed)

    def unit(self, tracer=None):
        marks = []

        def hook(rb, state):
            marks.append(time.perf_counter())
            if tracer is not None:
                tracer.mark()

        t0 = time.perf_counter()
        try:
            best, state = trainer.train(
                self.rb0.copy(), self.data,
                fixed_epochs(self.sizes.train_epochs, self.seed),
                epoch_callback=hook)
        except TrainingDiverged as exc:
            sys.stderr.write(f"training diverged: {exc}\n")
            return time.perf_counter() - t0, [], math.nan, 0
        wall = time.perf_counter() - t0
        self.best = best
        stamps = [t0] + marks
        epoch_ms = [(b - a) * 1e3 for a, b in zip(stamps, stamps[1:])]
        return wall, epoch_ms, split_val_mse(best, self.data), state.epoch

    def summarize(self, units, out: Outcome) -> None:
        n_train = len(self.data.train_idx)
        out.attempted, out.failed = count_failures(
            math.isfinite(v) for _, _, v, _ in units)
        epoch_ms = [ms for _, batch, _, _ in units for ms in batch]
        wall = sum(w for w, _, _, _ in units)
        val = units[0][2]
        out.checks["train.epochs"] = all(
            e == self.sizes.train_epochs for *_, e in units)
        out.checks["train.finite"] = math.isfinite(val)
        out.checks["train.repeatable"] = all(v == val for _, _, v, _ in units)
        out.end_to_end["rows_per_s"] = n_train * len(epoch_ms) / wall
        op_metrics(out, epoch_ms, "epochs")
        out.named.update({
            "epoch_ms_p50": (out.end_to_end["op_ms_p50"], "ms"),
            "epoch_ms_p90": (out.end_to_end["op_ms_p90"], "ms"),
            "val_mse": (val, "MWh^2"),
        })

    def parity(self, reference: dict, out: Outcome) -> None:
        compare("train_val_mse", [parity_train_val_mse()],
                [reference["train_val_mse"]], out)

    def tour(self, tracer: Tracer, units) -> dict[str, float]:
        layers = trainer_layers(tracer)
        layers.update(setup_layers(tracer))
        layers.update(mini_sweep(tracer, self.raw, self.rules))
        layers.update(mini_serve(tracer, self, self.best, self.data,
                                 self.raw))
        layers.update(kernel_layers(tracer, self.best,
                                    *self.data.subset(self.data.train_idx),
                                    self.data.X))
        return layers


class ServeR50:
    """CLI predict/evaluate on a large CSV and explain on a small one."""

    name = "serve-r50"
    #: the first round warms the heap and the page cache; it is checked
    #: and counted as attempted, but not timed
    warmup_units = 1

    def __init__(self, sizes: Sizes, seed: int, workdir: Path):
        self.sizes, self.seed, self.workdir = sizes, seed, workdir
        self.rules = sizes.serve_rules
        self.setup_repeats = sizes.serve_setup_repeats
        self.model = workdir / "serve_model.json"
        self.serve_csv = workdir / "serve_rows.csv"
        self.explain_csv = workdir / "explain_rows.csv"
        self.predictions = workdir / "predictions.csv"
        self.report = workdir / "report.json"

    def setup(self, tracer=None) -> None:
        s = self.sizes
        full = table(s.table_rows + s.serve_rows, self.seed)
        self.raw = head(full, s.table_rows)
        self.serve_raw = tail(full, s.serve_rows)
        self.data = dataset.normalize_and_split(self.raw, self.seed)
        rb = initial_rulebase(self.data, self.rules, self.seed)
        hook = tracer.mark if tracer is not None else None
        best, _ = trainer.train(
            rb, self.data, fixed_epochs(s.serve_train_epochs, self.seed),
            epoch_callback=hook)
        modelio.save_model(best, self.model, self.data.feature_scalers,
                           self.data.target_scaler)
        write_csv(self.serve_raw, self.serve_csv)
        write_csv(head(self.serve_raw, s.explain_rows), self.explain_csv)

    def unit(self, tracer=None):
        """One round of the CLI commands: predict, evaluate, explain.

        The round is the operation that ``op_ms_*`` time.  Timing whole
        rounds keeps the mix of commands out of the percentiles, which
        the per-command times, three clusters of different sizes, would
        not.
        """
        m = ["--model", str(self.model)]
        commands = [
            ("predict", self.sizes.serve_rows,
             ["predict", *m, "--data", str(self.serve_csv),
              "--out", str(self.predictions)]),
            ("evaluate", self.sizes.serve_rows,
             ["evaluate", *m, "--data", str(self.serve_csv)]),
            ("explain", self.sizes.explain_rows,
             ["explain", *m, "--data", str(self.explain_csv),
              "--out", str(self.report)]),
        ]
        done = []
        for kind, rows, argv in commands:
            scope = (tracer.in_scope(f"cli.{kind}") if tracer is not None
                     else contextlib.nullcontext())
            with scope:
                code, text, seconds = run_cli(argv)
            done.append((kind, rows, code, text, seconds))
        return done

    def check_outputs(self, done, out: Outcome) -> None:
        """Row counts, finiteness, and predict agreeing with evaluate."""
        preds = read_predictions(self.predictions)
        y_true = self.serve_raw.rows[:, -1]
        out.checks["serve.predict.rows"] = preds.shape[0] == y_true.size
        out.checks["serve.predict.finite"] = bool(np.all(np.isfinite(preds)))
        eval_text = next(t for k, _, _, t, _ in reversed(done)
                         if k == "evaluate")
        fields = dict(tok.split("=", 1) for tok in eval_text.split()
                      if "=" in tok)
        eval_mse = float(fields.get("mse", "nan"))
        out.checks["serve.evaluate.finite"] = math.isfinite(eval_mse)
        if preds.shape[0] == y_true.size:
            mse = float(np.mean((preds[:, 1] - y_true) ** 2))
            out.checks["serve.predict_matches_evaluate"] = (
                abs(mse - eval_mse) <= 1e-9 * max(1.0, abs(eval_mse)))
        report = json.loads(self.report.read_text(encoding="utf-8"))
        inst = report.get("per_instance") or []
        out.checks["serve.explain.rows"] = len(inst) == self.sizes.explain_rows
        out.checks["serve.explain.finite"] = all(
            math.isfinite(p["y_pred"]) for p in inst)
        out.named["evaluate_mse"] = (eval_mse, "MWh^2")

    def summarize(self, units, out: Outcome) -> None:
        done = [c for cycle in units for c in cycle]
        out.attempted, out.failed = count_failures(c[2] == 0 for c in done)
        if out.failed == 0:
            self.check_outputs(done, out)
        else:
            out.checks["serve.exit_codes"] = False
        rounds = units[self.warmup_units:]
        timed_cmds = [c for cycle in rounds for c in cycle]
        out.end_to_end["rows_per_s"] = (sum(c[1] for c in timed_cmds)
                                        / sum(c[4] for c in timed_cmds))
        op_metrics(out, [sum(c[4] for c in cycle) * 1e3 for cycle in rounds],
                   "rounds")
        for kind in ("predict", "evaluate", "explain"):
            mine = [c for c in timed_cmds if c[0] == kind]
            out.named[f"{kind}_rows_per_s"] = (
                sum(c[1] for c in mine) / sum(c[4] for c in mine), "1/s")

    def parity(self, reference: dict, out: Outcome) -> None:
        compare("serve_predictions", parity_serve_predictions(self.workdir),
                reference["serve_predictions"], out)

    def tour(self, tracer: Tracer, units) -> dict[str, float]:
        layers = trainer_layers(tracer)
        layers.update(setup_layers(tracer))
        layers.update(mini_sweep(tracer, self.raw, self.rules))
        layers.update(serve_layers(tracer, self.sizes.serve_rows))
        rb, X_serve = serve_model_matrix(self.model, self.serve_raw)
        layers.update(kernel_layers(tracer, rb,
                                    *self.data.subset(self.data.train_idx),
                                    X_serve))
        return layers


WORKLOADS = {w.name: w for w in (SweepSmall, TrainR50, ServeR50)}


def mini_sweep(tracer: Tracer, raw: RawTable, rules: int) -> dict:
    """A one-R sweep, one cell per worker, for workloads without a sweep."""
    workers = nproc()
    cfg = SweepConfig(rule_counts=(rules,), n_seeds=workers,
                      modes=(Mode.IT2,), parallelism=workers)
    with tracer.in_scope("tour.sweep"):
        rows = sweeps.sweep(raw, cfg, fixed_epochs(TOUR_SWEEP_EPOCHS))
    return sweep_layers(tracer, rows, workers)


def mini_serve(tracer: Tracer, workload, rb, data, raw: RawTable) -> dict:
    """The serve CLI commands on the workload's own table and model."""
    model = workload.workdir / "tour_model.json"
    rows_csv = workload.workdir / "tour_rows.csv"
    modelio.save_model(rb, model, data.feature_scalers, data.target_scaler)
    write_csv(raw, rows_csv)
    m = ["--model", str(model), "--data", str(rows_csv)]
    for kind, argv in (
            ("predict", ["predict", *m, "--out",
                         str(workload.workdir / "tour_predictions.csv")]),
            ("evaluate", ["evaluate", *m]),
            ("explain", ["explain", *m, "--out",
                         str(workload.workdir / "tour_report.json")])):
        with tracer.in_scope(f"cli.{kind}"):
            run_cli(argv)
    return serve_layers(tracer, raw.n_rows)


# --- one run ----------------------------------------------------------------

def cold_setup_s(name: str, seed: int, sizes: str, workdir: Path,
                 repeats: int) -> list[float]:
    """Wall times of fresh processes that import the package and set up.

    Each sample is a new interpreter, so the median spans several
    process states.  In-process set-ups of a few milliseconds read
    alike within a process, but differ by up to 1.8x between processes.
    """
    samples = []
    for k in range(repeats):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, __file__, "--setup-only",
                        "--workload", name, "--seed", str(seed),
                        "--sizes", sizes, "--workdir",
                        str(workdir / f"setup-{k}")],
                       check=True, timeout=SETUP_TIMEOUT_S)
        samples.append(time.perf_counter() - t0)
    return samples


def run(name: str, seed: int, seconds: float, trace: bool, workdir: Path,
        sizes: str = "full") -> Outcome:
    """Set up, measure and check one workload in this process."""
    workload = WORKLOADS[name](SIZES[sizes], seed, workdir)
    out = Outcome()
    if trace:
        tracer = Tracer()
        with tracer.active():
            workload.setup(tracer)
        # the traced unit sits between two untraced ones, so warm-up and
        # drift do not count as tracing overhead
        warm = [workload.unit() for _ in range(workload.warmup_units)]
        first, before = timed(workload.unit)
        with tracer.active():
            traced_unit, traced = timed(lambda: workload.unit(tracer))
            out.layers = workload.tour(tracer, [first, traced_unit])
        last, after = timed(workload.unit)
        units = [*warm, first, traced_unit, last]
        untraced = (before + after) / 2
        out.layers["trace.overhead_ms"] = (traced - untraced) * 1e3
        out.layers["trace.overhead_ratio"] = traced / untraced - 1.0
        out.notes["spans"] = len(tracer.spans)
    else:
        workload.setup()
        units = run_for(seconds, workload.unit,
                        least=1 + workload.warmup_units)
        # read before the set-up processes, which would count as children
        out.end_to_end["peak_rss_mb"] = peak_rss_mb()
        setup_s = cold_setup_s(name, seed, sizes, workdir,
                               workload.setup_repeats)
        out.end_to_end["setup_s"] = median(setup_s)
        out.notes["setup_s_samples"] = setup_s
    workload.summarize(units, out)
    out.named["fail_ratio"] = (fail_ratio(out.attempted, out.failed), "ratio")
    workload.parity(load_reference(), out)
    return out


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=35.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--workdir", type=Path, required=True)
    p.add_argument("--result", type=Path)
    p.add_argument("--write-reference", action="store_true")
    p.add_argument("--setup-only", action="store_true",
                   help="set the workload up and exit; times setup_s")
    p.add_argument("--sizes", choices=sorted(SIZES), default="full")
    args = p.parse_args(argv)
    args.workdir.mkdir(parents=True, exist_ok=True)
    if args.setup_only:
        if args.workload is None:
            p.error("--setup-only needs --workload")
        WORKLOADS[args.workload](SIZES[args.sizes], args.seed,
                                 args.workdir).setup()
        return 0
    if args.write_reference:
        print(json.dumps(write_reference(args.workdir), indent=1))
        return 0
    if args.workload is None or args.result is None:
        p.error("--workload and --result are required")
    out = run(args.workload, args.seed, args.seconds, bool(args.trace),
              args.workdir)
    out.notes["backend"] = kernels.active_backend()
    out.notes["numpy"] = np.__version__
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    out.notes["blas"] = f"{blas.get('name')} {blas.get('version')}"
    args.result.write_text(json.dumps(vars(out), indent=1), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
