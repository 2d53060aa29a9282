"""Acceptance suite: one test per shipped guarantee.

Criteria 1-10 are self-contained and always run.  Criteria 11-14 check
aggregate accuracy figures on the Melbourne ETP daily-energy dataset
and skip with a notice when the file is absent; point
IT2ANFIS_MELBOURNE_CSV at the CSV (or place it at data/melbourne_etp.csv
under the repository root) to enable them.  A summary line per
criterion is printed at the end of the pytest run.
"""

from __future__ import annotations

import csv
import math
import os
import time
from pathlib import Path

import numpy as np
import pytest

from it2anfis.core import Mode, predict_arrays, strengths
from it2anfis.dataset import (RawTable, SyntheticSpec, generate_synthetic,
                              load_csv, normalize_and_split)
from it2anfis.explainer import explain_instance
from it2anfis.initializer import InitConfig, build_rulebase, lhs_centers
from it2anfis.sweep import SweepConfig, aggregate, sweep
from it2anfis.trainer import (TrainConfig, antecedent_gradients,
                              consequent_gradients, train)
from it2anfis.modelio import load_model, save_model
from it2anfis.dataset import FeatureScaler, TargetScaler

from conftest import (ACCEPTANCE_RESULTS, bounds, draw_off_seam,
                      fd_gradient, random_rulebase)


def _record(num: int, summary: str, passed: bool, detail: str = "") -> None:
    status = "PASS" if passed else "FAIL"
    ACCEPTANCE_RESULTS.append((num, summary, status, detail))
    assert passed, f"criterion {num} ({summary}): {detail}"


def _record_skip(num: int, summary: str, reason: str) -> None:
    ACCEPTANCE_RESULTS.append((num, summary, "SKIP", reason))
    pytest.skip(reason)


# --- criteria 1-10: property suite ----------------------------------------


def test_criterion_01_fou_ordering():
    summary = "FOU ordering over 10,000 pairs, plateau exact, < 1 s"
    rng = np.random.default_rng(101)
    n = 10_000
    lo = rng.uniform(-1.0, 1.0, n)
    hi = lo + rng.uniform(0.0, 1.0, n)
    sigma = rng.uniform(0.05, 0.8, n)
    # one third of the probes forced onto the plateau
    u = rng.random(n)
    inside = rng.random(n) < (1.0 / 3.0)
    x = np.where(inside, lo + u * (hi - lo), rng.uniform(-2.0, 2.0, n))

    started = time.perf_counter()
    mu_l, mu_u = bounds(x, lo, hi, sigma)
    ordered = bool(np.all((0.0 <= mu_l) & (mu_l <= mu_u) & (mu_u <= 1.0)))
    plateau_exact = bool(np.all(mu_u[(lo <= x) & (x <= hi)] == 1.0))
    elapsed = time.perf_counter() - started

    _record(1, summary, ordered and plateau_exact and elapsed < 1.0,
            f"elapsed {elapsed * 1e3:.0f} ms, ordered={ordered}, "
            f"plateau_exact={plateau_exact}")


def _close(analytic: float, fd: float) -> bool:
    return abs(analytic - fd) <= 1e-4 * max(abs(analytic), abs(fd)) + 1e-8


def test_criterion_02_gradient_oracle():
    summary = ("analytic gradients match central differences on 100 "
               "instances, rel 1e-4, < 10 s")
    started = time.perf_counter()
    worst = 0.0
    mismatches = 0
    for i in range(100):
        rng = np.random.default_rng(1000 + i)
        R = int(rng.integers(1, 5))
        F = int(rng.integers(1, 4))
        N = int(rng.integers(1, 17))
        rb = random_rulebase(rng, R, F, q=float(rng.uniform(0.2, 0.8)))
        X = draw_off_seam(rng, rb, N)
        y = rng.normal(size=N)

        st = strengths(rb, X)
        d_w, d_b = consequent_gradients(rb, X, y, st.f)
        d_c1, d_c2 = antecedent_gradients(rb, X, y, st)
        checks = []
        for j in range(R):
            checks.append((d_b[j], fd_gradient(rb, X, y, "b", j)))
            for f in range(F):
                checks.append((d_w[j, f], fd_gradient(rb, X, y, "w", (j, f))))
                checks.append((d_c1[j, f], fd_gradient(rb, X, y, "c1", (j, f))))
                checks.append((d_c2[j, f], fd_gradient(rb, X, y, "c2", (j, f))))
        for analytic, fd in checks:
            allowed = 1e-4 * max(abs(analytic), abs(fd)) + 1e-8
            worst = max(worst, abs(analytic - fd) / allowed)
            if not _close(analytic, fd):
                mismatches += 1
    elapsed = time.perf_counter() - started

    _record(2, summary, mismatches == 0 and elapsed < 10.0,
            f"elapsed {elapsed:.2f} s, worst gap at {worst:.2f}x of "
            f"tolerance, {mismatches} mismatches")


def test_criterion_03_type1_collapse():
    summary = "collapsed bounds: width exactly 0, y_pred independent of q"
    rng = np.random.default_rng(33)
    rb = random_rulebase(rng, 5, 3, mode=Mode.TYPE1_ORDER1)
    X = rng.uniform(-0.5, 1.5, (200, 3))

    widths_zero = True
    q_independent = True
    reference = None
    for q in (0.0, 0.25, 0.5, 0.77, 1.0):
        rb.q = q
        y_l, y_u, y_p = predict_arrays(rb, X)
        if not (np.array_equal(y_l, y_u) and np.array_equal(y_p, y_l)):
            widths_zero = False
        if reference is None:
            reference = y_p
        elif not np.array_equal(reference, y_p):
            q_independent = False
    # the instance level, in target units, reports the same zero width
    y_l, y_u, _ = explain_instance(rb, X, TargetScaler("y", 260.0, 40.0))
    if np.any(np.abs(y_u - y_l) != 0.0):
        widths_zero = False

    _record(3, summary, widths_zero and q_independent,
            f"widths_zero={widths_zero}, q_independent={q_independent}")


def test_criterion_04_type_reduction_algebra():
    summary = "y_pred = q*y_lower + (1-q)*y_upper exact; q=0.5 is midpoint"
    rng = np.random.default_rng(44)
    blend_exact = True
    midpoint_exact = True
    for q in (0.0, 0.3, 0.5, 0.9, 1.0):
        rb = random_rulebase(rng, 4, 2, q=q)
        X = rng.uniform(-0.3, 1.3, (500, 2))
        y_l, y_u, y_p = predict_arrays(rb, X)
        split = y_l != y_u
        if not np.array_equal(y_p[split],
                              q * y_l[split] + (1.0 - q) * y_u[split]):
            blend_exact = False
        if not np.array_equal(y_p[~split], y_l[~split]):
            blend_exact = False
        if q == 0.5 and not np.array_equal(y_p, (y_l + y_u) / 2.0):
            midpoint_exact = False

    _record(4, summary, blend_exact and midpoint_exact,
            f"blend_exact={blend_exact}, midpoint_exact={midpoint_exact}")


def _synthetic_split(n, features, latent, noise, seed):
    raw = generate_synthetic(SyntheticSpec(n_samples=n, n_features=features,
                                           n_latent_rules=latent,
                                           noise_std=noise, seed=seed))
    return normalize_and_split(raw, seed=seed)


def test_criterion_05_constraints_every_epoch():
    summary = "7-rule run keeps c1 <= c2 and width >= 0.05 every epoch"
    data = _synthetic_split(500, 3, 3, 0.05, seed=2)
    rb = build_rulebase(InitConfig(n_rules=7, seed=2), [(0.0, 1.0)] * 3)

    min_width = math.inf
    ordered = True
    epochs_seen = 0

    def watch(model, state):
        nonlocal min_width, ordered, epochs_seen
        epochs_seen += 1
        min_width = min(min_width, float((model.c2 - model.c1).min()))
        ordered = ordered and bool(np.all(model.c1 <= model.c2))

    train(rb, data, TrainConfig(max_epochs=60, patience=50, seed=2),
          epoch_callback=watch)

    _record(5, summary,
            epochs_seen >= 1 and ordered and min_width >= 0.05,
            f"{epochs_seen} epochs, min width {min_width:.6f}")


def test_criterion_06_learning_rate_bounds():
    summary = "eta_cons in [1e-5, 0.05] and eta_ant in [1e-6, 0.02] always"
    data = _synthetic_split(300, 3, 3, 0.05, seed=6)
    rb = build_rulebase(InitConfig(n_rules=5, seed=6), [(0.0, 1.0)] * 3)
    _, state = train(rb, data, TrainConfig(max_epochs=80, patience=80,
                                           seed=6))

    cons = [r.eta_cons for r in state.history]
    ant = [r.eta_ant for r in state.history]
    ok = all(1e-5 <= v <= 0.05 for v in cons) and \
        all(1e-6 <= v <= 0.02 for v in ant)
    _record(6, summary, ok and len(cons) >= 1,
            f"eta_cons span [{min(cons):.3g}, {max(cons):.3g}], "
            f"eta_ant span [{min(ant):.3g}, {max(ant):.3g}] "
            f"over {len(cons)} epochs")


def test_criterion_07_lhs_stratification():
    summary = "LHS centers occupy each stratum exactly once, R in {5,7,10}"
    ok = True
    details = []
    for R in (5, 7, 10):
        for seed in (0, 1, 2):
            ranges = [(0.0, 1.0)] * 13
            centers = lhs_centers(ranges, R, seed)
            for f, (lo, hi) in enumerate(ranges):
                width = (hi - lo) / R
                strata = np.floor((centers[:, f] - lo) / width).astype(int)
                if sorted(strata) != list(range(R)):
                    ok = False
                    details.append(f"R={R} seed={seed} feature={f}")
        # uneven ranges behave identically
        centers = lhs_centers([(-2.0, 5.0), (0.25, 0.3)], R, seed=7)
        for f, (lo, hi) in enumerate([(-2.0, 5.0), (0.25, 0.3)]):
            width = (hi - lo) / R
            strata = np.floor((centers[:, f] - lo) / width).astype(int)
            if sorted(strata) != list(range(R)):
                ok = False
                details.append(f"uneven R={R} feature={f}")
    _record(7, summary, ok, "; ".join(details) if details else
            "bijective on every (R, seed, feature)")


def test_criterion_08_synthetic_recoverability():
    summary = ("noiseless affine data, 1-rule order-1 model: train MSE "
               "< 1e-3 within 500 epochs")
    raw = generate_synthetic(SyntheticSpec(n_samples=400, n_features=3,
                                           n_latent_rules=1, noise_std=0.0,
                                           seed=21))
    data = normalize_and_split(raw, seed=21)
    rb = build_rulebase(InitConfig(n_rules=1, seed=21,
                                   mode=Mode.TYPE1_ORDER1),
                        [(0.0, 1.0)] * 3)
    cfg = TrainConfig(max_epochs=500, patience=500, seed=21,
                      lambda_l1=0.0, lambda_l2=0.0)
    best, state = train(rb, data, cfg)
    Xtr, ytr = data.subset(data.train_idx)
    _, _, y_pred = predict_arrays(best, Xtr)
    mse = float(np.mean((y_pred - ytr) ** 2))

    _record(8, summary, mse < 1e-3,
            f"train MSE {mse:.3e} after {state.epoch} epochs")


def test_criterion_09_checkpointing_and_determinism():
    summary = "best-validation checkpoint restored; reruns bit-identical"

    def one_run():
        data = _synthetic_split(300, 3, 3, 0.05, seed=9)
        rb = build_rulebase(InitConfig(n_rules=4, seed=9), [(0.0, 1.0)] * 3)
        return train(rb, data, TrainConfig(max_epochs=30, patience=50,
                                           seed=9)), data

    (best_a, state_a), data = one_run()
    (best_b, state_b), _ = one_run()

    identical = all(
        np.array_equal(getattr(best_a, name), getattr(best_b, name))
        for name in ("c1", "c2", "sigma", "w", "b"))
    same_history = [r.val_mse for r in state_a.history] == \
        [r.val_mse for r in state_b.history]

    dominated = state_a.best_val_mse == \
        min(r.val_mse for r in state_a.history)
    Xv, yv = data.subset(data.val_idx)
    _, _, y_pred = predict_arrays(best_a, Xv)
    restored = float(np.mean((y_pred - yv) ** 2)) == state_a.best_val_mse

    _record(9, summary, identical and same_history and dominated
            and restored,
            f"identical={identical}, same_history={same_history}, "
            f"dominated={dominated}, restored={restored}")


def test_criterion_10_model_round_trip(tmp_path):
    summary = "save -> load -> predict identical on 100 random inputs"
    rng = np.random.default_rng(10)
    rb = random_rulebase(rng, 6, 3, q=0.4)
    features = [FeatureScaler(name=f"x{k + 1}", min=-1.0, max=3.0)
                for k in range(3)]
    target = TargetScaler(name="energy_mwh", mean=250.0, std=38.5)
    path = tmp_path / "model.json"
    save_model(rb, path, features, target)
    loaded, _, _, _ = load_model(path)

    X = rng.uniform(-0.5, 1.5, (100, 3))
    same = all(np.array_equal(a, b) for a, b in
               zip(predict_arrays(rb, X), predict_arrays(loaded, X)))
    _record(10, summary, same, "bitwise equal" if same else "drift")


# --- criteria 11-14: Melbourne ETP reproduction ---------------------------

REFERENCE_RMSE_MWH = 41.10
RMSE_RELATIVE_TOL = 0.20
REFERENCE_MAPE_PCT = 12.34
MAPE_TOL_POINTS = 3.0
LOW_RULE_GRID = (7, 8, 9, 10)
HIGH_RULE_COUNT = 50
BASELINE_SLACK = 1.05

_MELBOURNE_CACHE: dict[str, object] = {}


def _melbourne_path() -> Path | None:
    env = os.environ.get("IT2ANFIS_MELBOURNE_CSV")
    if env:
        path = Path(env)
        if path.is_file():
            return path
    default = Path(__file__).resolve().parent.parent / "data" \
        / "melbourne_etp.csv"
    if default.is_file():
        return default
    return None


def _require_melbourne(num: int, summary: str) -> Path:
    path = _melbourne_path()
    if path is None:
        _record_skip(num, summary,
                     "Melbourne ETP file not found; set "
                     "IT2ANFIS_MELBOURNE_CSV or add data/melbourne_etp.csv")
    return path


def _load_melbourne(path: Path) -> RawTable:
    target = os.environ.get("IT2ANFIS_MELBOURNE_TARGET", "energy_mwh")
    date_col = os.environ.get("IT2ANFIS_MELBOURNE_DATE")
    if date_col is None:
        with path.open(newline="", encoding="utf-8") as handle:
            header = [h.strip() for h in next(csv.reader(handle))]
        for candidate in ("date", "Date", "DATE", "timestamp", "Timestamp"):
            if candidate in header:
                date_col = candidate
                break
    return load_csv(path, target, date_col)


def _parallelism() -> int:
    return min(8, os.cpu_count() or 1)


def _melbourne_it2_results(path: Path):
    """IT2 grid over the low-rule region plus the 50-rule point."""
    if "it2" not in _MELBOURNE_CACHE:
        raw = _load_melbourne(path)
        cfg = SweepConfig(rule_counts=(*LOW_RULE_GRID, HIGH_RULE_COUNT),
                          n_seeds=10, modes=(Mode.IT2,),
                          parallelism=_parallelism())
        _MELBOURNE_CACHE["raw"] = raw
        _MELBOURNE_CACHE["it2"] = sweep(raw, cfg, TrainConfig())
    return _MELBOURNE_CACHE["it2"]


def _optimal_rules(results) -> int:
    agg = {a.rules: a.mean_test_mse for a in aggregate(results)
           if a.rules in LOW_RULE_GRID and a.n_ok > 0}
    return min(agg, key=agg.get)


def _melbourne_baseline_results(path: Path, rules: int):
    key = f"baselines_{rules}"
    if key not in _MELBOURNE_CACHE:
        raw = _MELBOURNE_CACHE["raw"]
        cfg = SweepConfig(rule_counts=(rules,), n_seeds=10,
                          modes=(Mode.TYPE1_ORDER0, Mode.TYPE1_ORDER1),
                          parallelism=_parallelism())
        _MELBOURNE_CACHE[key] = sweep(raw, cfg, TrainConfig())
    return _MELBOURNE_CACHE[key]


def _ok_rows(results, mode: str, rules: int):
    return [r for r in results
            if r.mode == mode and r.rules == rules and r.status == "ok"]


def test_criterion_11_reference_accuracy():
    summary = (f"7-rule IT2, 10 seeds: mean RMSE within 20% of "
               f"{REFERENCE_RMSE_MWH} MWh, mean MAPE within "
               f"{MAPE_TOL_POINTS} points of {REFERENCE_MAPE_PCT}%")
    path = _require_melbourne(11, summary)
    rows = _ok_rows(_melbourne_it2_results(path), "it2", 7)
    if len(rows) != 10:
        _record(11, summary, False, f"only {len(rows)}/10 runs succeeded")
    mean_rmse = float(np.mean([r.test.rmse for r in rows]))
    mean_mape = float(np.mean([r.test.mape for r in rows]))
    rmse_ok = abs(mean_rmse - REFERENCE_RMSE_MWH) <= \
        RMSE_RELATIVE_TOL * REFERENCE_RMSE_MWH
    mape_ok = abs(mean_mape - REFERENCE_MAPE_PCT) <= MAPE_TOL_POINTS
    _record(11, summary, rmse_ok and mape_ok,
            f"mean RMSE {mean_rmse:.2f} MWh, mean MAPE {mean_mape:.2f}%")


def test_criterion_12_u_shape_ordering():
    summary = (f"mean IT2 test MSE at R={HIGH_RULE_COUNT} exceeds the "
               f"minimum over R in {LOW_RULE_GRID}")
    path = _require_melbourne(12, summary)
    results = _melbourne_it2_results(path)
    means = {a.rules: a.mean_test_mse for a in aggregate(results)
             if a.n_ok > 0}
    missing = [r for r in (*LOW_RULE_GRID, HIGH_RULE_COUNT)
               if r not in means]
    if missing:
        _record(12, summary, False, f"no successful runs at R={missing}")
    low = min(means[r] for r in LOW_RULE_GRID)
    high = means[HIGH_RULE_COUNT]
    _record(12, summary, high > low,
            f"min low-R mean {low:.1f}, R={HIGH_RULE_COUNT} "
            f"mean {high:.1f}")


def test_criterion_13_variance_reduction():
    summary = ("IT2 test-MSE min-max band at the optimal R no wider than "
               "the order-1 baseline band")
    path = _require_melbourne(13, summary)
    it2_results = _melbourne_it2_results(path)
    r_star = _optimal_rules(it2_results)
    baselines = _melbourne_baseline_results(path, r_star)

    it2_mses = [r.test.mse for r in _ok_rows(it2_results, "it2", r_star)]
    t1_mses = [r.test.mse for r in _ok_rows(baselines, "anfis1", r_star)]
    if not it2_mses or not t1_mses:
        _record(13, summary, False, "missing successful runs")
    it2_band = max(it2_mses) - min(it2_mses)
    t1_band = max(t1_mses) - min(t1_mses)
    _record(13, summary, it2_band <= t1_band,
            f"R*={r_star}, IT2 band {it2_band:.1f}, "
            f"ANFIS-1 band {t1_band:.1f}")


def test_criterion_14_baseline_ordering():
    summary = ("mean test MSE ordering IT2 <= ANFIS-1 <= ANFIS-0 within "
               "5% slack (reported, not enforced)")
    path = _require_melbourne(14, summary)
    it2_results = _melbourne_it2_results(path)
    r_star = _optimal_rules(it2_results)
    baselines = _melbourne_baseline_results(path, r_star)

    means = {}
    for label, rows in (("it2", _ok_rows(it2_results, "it2", r_star)),
                        ("anfis1", _ok_rows(baselines, "anfis1", r_star)),
                        ("anfis0", _ok_rows(baselines, "anfis0", r_star))):
        means[label] = float(np.mean([r.test.mse for r in rows])) \
            if rows else math.nan
    ordered = means["it2"] <= BASELINE_SLACK * means["anfis1"] \
        and means["anfis1"] <= BASELINE_SLACK * means["anfis0"]
    detail = (f"R*={r_star}, means it2 {means['it2']:.1f} / anfis1 "
              f"{means['anfis1']:.1f} / anfis0 {means['anfis0']:.1f}")
    status = "PASS" if ordered else "WARN"
    ACCEPTANCE_RESULTS.append((14, summary, status, detail))
    if not ordered:
        print(f"WARN criterion 14: ordering not met within slack "
              f"({detail})")
