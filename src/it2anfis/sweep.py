"""Seeded benchmark grid over rule counts, seeds, and model modes.

Every (mode, rule count, seed index) cell is an independent training
run: the dataset is re-split, the rule base re-initialized, and the
trainer re-seeded from one derived run seed, so cells can execute in
any order or in parallel without affecting each other.  Failures are
recorded per row and never abort the grid.  The long-form CSV is the
canonical output; per-(mode, R) aggregates and an optional SVG chart
(mean line plus min-max band) are derived from it.
"""

from __future__ import annotations

import csv
import math
import sys
import time
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from .core import Mode, RuleBase, check_q, predict_arrays
from .dataset import Dataset, RawTable, inverse_target, normalize_and_split
from .initializer import (ALPHA_DEFAULT, InitConfig, build_rulebase,
                          ranges_from_training)
from .metrics import MetricSet, evaluate
from .trainer import TrainConfig, TrainState, train

MODE_LABELS = {Mode.IT2: "it2", Mode.TYPE1_ORDER0: "anfis0",
               Mode.TYPE1_ORDER1: "anfis1"}
LABEL_MODES = {v: k for k, v in MODE_LABELS.items()}

#: seed indices per rule count that ``run_seed`` keeps distinct
MAX_SEEDS = 100

CSV_COLUMNS = ("mode", "rules", "seed", "test_mse", "test_rmse",
               "test_mae", "test_mape", "val_mse", "wall_ms", "status")


@dataclass
class SweepConfig:
    """Grid definition plus the shared init/training knobs."""

    rule_counts: tuple[int, ...] = tuple(range(5, 51))
    n_seeds: int = 10
    modes: tuple[Mode, ...] = (Mode.IT2,)
    parallelism: int = 1
    seed_base: int = 0
    alpha: float = ALPHA_DEFAULT
    q: float = RuleBase.q

    def validate(self) -> None:
        if not self.rule_counts or any(r < 1 for r in self.rule_counts):
            raise ValueError("rule_counts must be non-empty, all >= 1")
        if self.n_seeds < 1:
            raise ValueError("n_seeds must be >= 1")
        if self.n_seeds > MAX_SEEDS:
            raise ValueError(f"n_seeds must be <= {MAX_SEEDS}: run_seed "
                             f"would give two cells the same seed")
        if not self.modes:
            raise ValueError("at least one mode is required")
        labels = [MODE_LABELS.get(m, m) for m in self.modes]
        for name, values in (("rule_counts", list(self.rule_counts)),
                             ("modes", labels)):
            repeated = [v for k, v in enumerate(values) if v in values[:k]]
            if repeated:
                raise ValueError(f"{name} repeats {repeated[0]!r}: every "
                                 f"grid cell must be distinct")
        if self.parallelism < 1:
            raise ValueError("parallelism must be >= 1")
        # the checks every cell's rule base would otherwise fail
        InitConfig(n_rules=1, alpha=self.alpha).validate()
        check_q(self.q)


@dataclass
class RunResult:
    """One grid cell's outcome (metrics in original target units)."""

    mode: str
    rules: int
    seed: int
    test: MetricSet | None
    val_mse: float
    wall_ms: float
    status: str = "ok"

    def csv_row(self) -> list:
        if self.test is None:
            metric_cells = [math.nan] * 4
        else:
            metric_cells = [self.test.mse, self.test.rmse,
                            self.test.mae, self.test.mape]
        return [self.mode, self.rules, self.seed, *metric_cells,
                self.val_mse, self.wall_ms, self.status]


@dataclass
class AggregateRow:
    """Per-(mode, R) summary across the successful seeds."""

    mode: str
    rules: int
    n_ok: int
    mean_test_mse: float
    min_test_mse: float
    max_test_mse: float


def run_seed(seed_base: int, rules: int, seed_index: int) -> int:
    """Derived per-run seed; adding rule counts never shifts others."""
    return seed_base * 10_000 + rules * MAX_SEEDS + seed_index


def split_metrics(rb, data: Dataset, idx: np.ndarray) -> MetricSet:
    """Metrics of rb on the rows idx of data, in original target units."""
    X, y = data.subset(idx)
    _, _, y_pred = predict_arrays(rb, X)
    return evaluate(inverse_target(y, data.target_scaler),
                    inverse_target(y_pred, data.target_scaler))


def fit(raw: RawTable, mode: Mode, rules: int, alpha: float, q: float,
        train_cfg: TrainConfig) -> tuple[RuleBase, TrainState, Dataset]:
    """The one training recipe, of the ``train`` command and sweep cells.

    Splits raw, builds an R-rule base of the given mode, alpha and q on
    the training split's ranges, and trains it, all seeded by
    ``train_cfg.seed``.  Returns the best rule base, the final training
    state and the split.
    """
    data = normalize_and_split(raw, train_cfg.seed)
    rb = build_rulebase(InitConfig(n_rules=rules, alpha=alpha,
                                   seed=train_cfg.seed, mode=mode),
                        ranges_from_training(data.X, data.train_idx))
    rb.q = q
    best, state = train(rb, data, train_cfg)
    return best, state, data


def run_single(raw: RawTable, mode: Mode, rules: int, seed_index: int,
               cfg: SweepConfig, train_cfg: TrainConfig) -> RunResult:
    """Train one grid cell and measure it; errors land in the row."""
    label = MODE_LABELS[mode]
    seed = run_seed(cfg.seed_base, rules, seed_index)
    started = time.perf_counter()
    try:
        best, _, data = fit(raw, mode, rules, cfg.alpha, cfg.q,
                            replace(train_cfg, seed=seed, log_path=None))
        test = split_metrics(best, data, data.test_idx)
        val = split_metrics(best, data, data.val_idx)
        wall_ms = (time.perf_counter() - started) * 1e3
        return RunResult(mode=label, rules=rules, seed=seed_index,
                         test=test, val_mse=val.mse, wall_ms=wall_ms)
    except Exception as exc:  # noqa: BLE001 - isolate per-run failures
        wall_ms = (time.perf_counter() - started) * 1e3
        return RunResult(mode=label, rules=rules, seed=seed_index,
                         test=None, val_mse=math.nan, wall_ms=wall_ms,
                         status=f"error: {exc}")


#: the table of this pool worker, set once by ``_init_worker``
_worker_raw: RawTable | None = None


def _init_worker(raw: RawTable) -> None:
    global _worker_raw
    _worker_raw = raw


def _run_pooled(cell) -> RunResult:
    return run_single(_worker_raw, *cell)


def __getattr__(name):
    # the process pool is imported on first use, so that importing the
    # package loads no multiprocessing for commands that never sweep
    if name == "ProcessPoolExecutor":
        from concurrent.futures import ProcessPoolExecutor
        return ProcessPoolExecutor
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def sweep(raw: RawTable, cfg: SweepConfig,
          train_cfg: TrainConfig) -> list[RunResult]:
    """Execute the full grid, rows sorted by (mode, rules, seed)."""
    cfg.validate()
    train_cfg.validate()
    cells = [(mode, rules, seed_index, cfg, train_cfg)
             for mode in cfg.modes
             for rules in cfg.rule_counts
             for seed_index in range(cfg.n_seeds)]
    # a pool starts all its workers at once, needed or not
    workers = min(cfg.parallelism, len(cells))
    if workers > 1:
        # the module's attribute, which tests and tracers may replace;
        # each worker receives the table once, not once per cell
        pool_class = sys.modules[__name__].ProcessPoolExecutor
        with pool_class(max_workers=workers, initializer=_init_worker,
                        initargs=(raw,)) as pool:
            results = list(pool.map(_run_pooled, cells))
    else:
        results = [run_single(raw, *cell) for cell in cells]
    results.sort(key=lambda r: (r.mode, r.rules, r.seed))
    return results


def aggregate(results: list[RunResult]) -> list[AggregateRow]:
    """Mean/min/max test MSE per (mode, R) over successful runs."""
    groups: dict[tuple[str, int], list[float]] = {}
    for row in results:
        groups.setdefault((row.mode, row.rules), [])
        if row.status == "ok" and row.test is not None:
            groups[(row.mode, row.rules)].append(row.test.mse)
    out = []
    for (mode, rules), mses in sorted(groups.items()):
        if mses:
            out.append(AggregateRow(mode=mode, rules=rules, n_ok=len(mses),
                                    mean_test_mse=float(np.mean(mses)),
                                    min_test_mse=float(np.min(mses)),
                                    max_test_mse=float(np.max(mses))))
        else:
            out.append(AggregateRow(mode=mode, rules=rules, n_ok=0,
                                    mean_test_mse=math.nan,
                                    min_test_mse=math.nan,
                                    max_test_mse=math.nan))
    return out


def _cell_text(value) -> str:
    if isinstance(value, float):
        return f"{value:.17g}"
    return str(value)


def write_csv(results: list[RunResult], path: str | Path) -> None:
    with Path(path).open("w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle)
        writer.writerow(CSV_COLUMNS)
        for row in results:
            writer.writerow([_cell_text(c) for c in row.csv_row()])


def summary_dict(results: list[RunResult]) -> dict:
    return {"aggregates": [vars(a).copy() for a in aggregate(results)],
            "n_runs": len(results),
            "n_failed": sum(1 for r in results if r.status != "ok")}


# --- hand-rolled SVG chart (mean line + min-max band per mode) -----------

_MODE_COLORS = {"it2": "#225588", "anfis1": "#bb5522", "anfis0": "#559944"}


def render_sweep_svg(aggregates: list[AggregateRow]) -> str:
    """Line chart of mean test MSE vs rule count with min-max bands."""
    rows = [a for a in aggregates if a.n_ok > 0]
    if not rows:
        return ('<svg xmlns="http://www.w3.org/2000/svg" width="200" '
                'height="40"><text x="10" y="25" font-size="12">no '
                'successful runs</text></svg>')
    width, height, pad = 640.0, 400.0, 50.0
    xs = sorted({a.rules for a in rows})
    x_lo, x_hi = min(xs), max(xs)
    y_lo = min(a.min_test_mse for a in rows)
    y_hi = max(a.max_test_mse for a in rows)
    if x_hi == x_lo:
        x_hi = x_lo + 1
    if y_hi == y_lo:
        y_hi = y_lo + 1.0

    def px(r: float) -> float:
        return pad + (r - x_lo) / (x_hi - x_lo) * (width - 2 * pad)

    def py(v: float) -> float:
        return height - pad - (v - y_lo) / (y_hi - y_lo) * (height - 2 * pad)

    parts = [f'<svg xmlns="http://www.w3.org/2000/svg" width="{width:.0f}" '
             f'height="{height:.0f}" viewBox="0 0 {width:.0f} '
             f'{height:.0f}">',
             f'<rect x="{pad}" y="{pad}" width="{width - 2 * pad}" '
             f'height="{height - 2 * pad}" fill="none" stroke="#888"/>',
             f'<text x="{width / 2:.0f}" y="{height - 12:.0f}" '
             f'font-size="12" font-family="sans-serif" '
             f'text-anchor="middle">rules</text>',
             f'<text x="14" y="{height / 2:.0f}" font-size="12" '
             f'font-family="sans-serif" text-anchor="middle" '
             f'transform="rotate(-90 14 {height / 2:.0f})">test MSE</text>']
    modes = sorted({a.mode for a in rows})
    for k, mode in enumerate(modes):
        series = sorted((a for a in rows if a.mode == mode),
                        key=lambda a: a.rules)
        color = _MODE_COLORS.get(mode, "#555555")
        band_fwd = " ".join(f"{px(a.rules):.2f},{py(a.max_test_mse):.2f}"
                            for a in series)
        band_rev = " ".join(f"{px(a.rules):.2f},{py(a.min_test_mse):.2f}"
                            for a in reversed(series))
        mean_line = " ".join(f"{px(a.rules):.2f},{py(a.mean_test_mse):.2f}"
                             for a in series)
        parts.extend([
            f'<polygon points="{band_fwd} {band_rev}" fill="{color}" '
            f'fill-opacity="0.18" stroke="none"/>',
            f'<polyline points="{mean_line}" fill="none" stroke="{color}" '
            f'stroke-width="1.8"/>',
            f'<text x="{width - pad - 4:.0f}" y="{pad + 16 + 16 * k:.0f}" '
            f'font-size="12" font-family="sans-serif" text-anchor="end" '
            f'fill="{color}">{mode}</text>',
        ])
    parts.append("</svg>")
    return "\n".join(parts)
