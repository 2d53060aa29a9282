"""Command-line front end: train, predict, explain, evaluate, sweep, synth.

Every command that reads data reads a CSV file (--data); ``synth`` writes
a synthetic one.  Model modes are selected with --mode {it2,anfis0,anfis1}.
All commands exit 0 on success and nonzero with a message on stderr
otherwise.
"""

from __future__ import annotations

import argparse
import csv
import functools
import json
import sys
from pathlib import Path

import numpy as np

from .core import Mode, RuleBase, predict_arrays
from .dataset import (FeatureScaler, SyntheticSpec, generate_synthetic,
                      inverse_target, load_csv, load_features)
from .explainer import (explain_instance, explain_model, export_rules_text,
                        render_rule_svg)
from .initializer import InitConfig
from .metrics import evaluate
from .modelio import load_model, save_model
from .sweep import (LABEL_MODES, MAX_SEEDS, MODE_LABELS, SweepConfig,
                    aggregate, fit, render_sweep_svg, split_metrics,
                    summary_dict, sweep, write_csv)
from .trainer import TrainConfig

PREDICTION_COLUMNS = ("index", "y_pred_mwh", "interval_lo_mwh",
                      "interval_hi_mwh", "width_mwh")
PREDICTION_ROW = "%d,%.17g,%.17g,%.17g,%.17g\r\n"


def _add_data_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--data", required=True,
                   help="CSV file with a header row")
    p.add_argument("--target", default="energy_mwh",
                   help="target column name (default: energy_mwh)")
    p.add_argument("--date-col", default=None,
                   help="date column to skip; never a feature")


def _add_optimizer_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--seed", type=int, default=TrainConfig.seed)
    p.add_argument("--alpha", type=float, default=InitConfig.alpha)
    p.add_argument("--q", type=float, default=RuleBase.q)
    p.add_argument("--max-epochs", type=int, default=TrainConfig.max_epochs)
    p.add_argument("--batch-size", type=int, default=TrainConfig.batch_size)
    p.add_argument("--patience", type=int, default=TrainConfig.patience)
    p.add_argument("--eta-cons", type=float, default=TrainConfig.eta_cons)
    p.add_argument("--eta-ant", type=float, default=TrainConfig.eta_ant)
    p.add_argument("--lambda-l1", type=float, default=TrainConfig.lambda_l1)
    p.add_argument("--lambda-l2", type=float, default=TrainConfig.lambda_l2)


def _train_config(args, log_path) -> TrainConfig:
    return TrainConfig(max_epochs=args.max_epochs,
                       batch_size=args.batch_size,
                       eta_cons=args.eta_cons, eta_ant=args.eta_ant,
                       lambda_l1=args.lambda_l1, lambda_l2=args.lambda_l2,
                       patience=args.patience, seed=args.seed,
                       log_path=log_path)


def _print_metrics(label: str, values: dict[str, float]) -> None:
    cells = " ".join(f"{k}={v:.17g}" for k, v in values.items())
    print(f"{label} {cells}")


def cmd_train(args) -> int:
    raw = load_csv(args.data, args.target, args.date_col)
    out = Path(args.out or "model.json")
    log_path = Path(args.log) if args.log else out.with_suffix(".log.jsonl")
    best, state, data = fit(raw, LABEL_MODES[args.mode], args.rules,
                            args.alpha, args.q, _train_config(args, log_path))

    print(f"mode={args.mode} rules={args.rules} seed={args.seed} "
          f"epochs_run={state.epoch} best_val_mse_std="
          f"{state.best_val_mse:.17g}")
    for label, idx in (("train", data.train_idx), ("val", data.val_idx),
                       ("test", data.test_idx)):
        _print_metrics(label, split_metrics(best, data, idx).as_dict())

    save_model(best, out, data.feature_scalers, data.target_scaler,
               provenance={"init_seed": args.seed, "mode": args.mode,
                           "rules": args.rules})
    print(f"model written to {out}")
    print(f"epoch log written to {log_path}")
    return 0


def _scale_features(X_raw: np.ndarray,
                    feature_scalers: list[FeatureScaler]) -> np.ndarray:
    """Min-max scale every column of X_raw with its feature's scaler."""
    lo = np.array([s.min for s in feature_scalers])
    hi = np.array([s.max for s in feature_scalers])
    return (X_raw - lo) / (hi - lo)


def _write_predictions(out: Path, y_p: np.ndarray, lo: np.ndarray,
                       hi: np.ndarray) -> None:
    """The predictions CSV, written as one string.

    No cell needs quoting and every line ends in CRLF, so the bytes are
    those that csv.writer writes for the same ``.17g`` cells.
    """
    rows = zip(range(y_p.shape[0]), y_p.tolist(), lo.tolist(), hi.tolist(),
               (hi - lo).tolist())
    with out.open("w", newline="", encoding="utf-8") as handle:
        handle.write(",".join(PREDICTION_COLUMNS) + "\r\n")
        handle.write("".join(PREDICTION_ROW % row for row in rows))


def cmd_predict(args) -> int:
    rb, feature_scalers, target_scaler, _ = load_model(args.model)
    names = [s.name for s in feature_scalers]
    X = _scale_features(load_features(args.data, names), feature_scalers)

    y_l, y_u, y_p = predict_arrays(rb, X)
    y_l = inverse_target(y_l, target_scaler)
    y_u = inverse_target(y_u, target_scaler)
    y_p = inverse_target(y_p, target_scaler)
    lo = np.minimum(y_l, y_u)
    hi = np.maximum(y_l, y_u)

    out = Path(args.out or "predictions.csv")
    _write_predictions(out, y_p, lo, hi)
    print(f"wrote {X.shape[0]} predictions to {out}")
    return 0


def cmd_explain(args) -> int:
    rb, feature_scalers, target_scaler, _ = load_model(args.model)
    names = [s.name for s in feature_scalers]
    report = explain_model(rb)
    if args.data:
        X = _scale_features(load_features(args.data, names),
                            feature_scalers)
        report.per_instance = explain_instance(rb, X, target_scaler)

    out = Path(args.out or "report.json")
    out.write_text(json.dumps(report.as_dict(), indent=2) + "\n",
                   encoding="utf-8")
    print(f"report written to {out}")

    if args.text:
        text_path = out.with_suffix(".rules.txt")
        text_path.write_text(
            export_rules_text(rb, feature_scalers, target_scaler),
            encoding="utf-8")
        print(f"rules written to {text_path}")
    if args.svg:
        for j in range(rb.n_rules):
            svg_path = out.with_suffix(f".rule{j + 1}.svg")
            svg_path.write_text(render_rule_svg(rb, j, names),
                                encoding="utf-8")
        print(f"wrote {rb.n_rules} rule SVGs next to {out}")
    return 0


def cmd_evaluate(args) -> int:
    rb, feature_scalers, target_scaler, _ = load_model(args.model)
    names = [s.name for s in feature_scalers]
    raw = load_csv(args.data, target_scaler.name, features=names)
    cols = [raw.column_names.index(c) for c in names]
    X = _scale_features(raw.rows[:, cols], feature_scalers)
    y_true = raw.rows[:, raw.column_names.index(target_scaler.name)]

    _, _, y_p = predict_arrays(rb, X)
    m = evaluate(y_true, inverse_target(y_p, target_scaler))
    _print_metrics("eval", m.as_dict())
    if not m.mape_defined:
        print("note: MAPE undefined (zero-valued target present)")
    return 0


def _sweep_grid(args) -> tuple[tuple[int, ...], tuple[Mode, ...]]:
    """The rule counts and modes a sweep's flags name, token by token."""
    rule_counts = []
    for tok in args.rules_list.split(","):
        try:
            count = int(tok)
        except ValueError:
            raise ValueError(f"--rules-list: {tok!r} is not an "
                             f"integer") from None
        if count < 1:
            raise ValueError(f"--rules-list: {tok!r} is below 1")
        rule_counts.append(count)
    modes = []
    for tok in args.modes.split(","):
        if tok not in LABEL_MODES:
            raise ValueError(f"--modes: unknown mode {tok!r}; valid modes "
                             f"are {', '.join(LABEL_MODES)}")
        modes.append(LABEL_MODES[tok])
    return tuple(rule_counts), tuple(modes)


def cmd_sweep(args) -> int:
    rule_counts, modes = _sweep_grid(args)
    raw = load_csv(args.data, args.target, args.date_col)
    cfg = SweepConfig(rule_counts=rule_counts, n_seeds=args.seeds,
                      modes=modes, parallelism=args.parallelism,
                      seed_base=args.seed, alpha=args.alpha, q=args.q)
    train_cfg = _train_config(args, None)
    results = sweep(raw, cfg, train_cfg)

    out = Path(args.out or "sweep.csv")
    write_csv(results, out)
    summary = summary_dict(results)
    summary_path = out.with_suffix(".summary.json")
    summary_path.write_text(json.dumps(summary, indent=2) + "\n",
                            encoding="utf-8")
    print(f"wrote {len(results)} rows to {out}")
    print(f"summary written to {summary_path}")
    if summary["n_failed"]:
        print(f"warning: {summary['n_failed']} runs failed "
              f"(see status column)")
    if args.svg:
        svg_path = out.with_suffix(".svg")
        svg_path.write_text(render_sweep_svg(aggregate(results)),
                            encoding="utf-8")
        print(f"chart written to {svg_path}")
    return 0


def cmd_synth(args) -> int:
    raw = generate_synthetic(SyntheticSpec(
        n_samples=args.synth_samples, n_features=args.synth_features,
        n_latent_rules=args.synth_latent_rules, noise_std=args.synth_noise,
        seed=args.seed))
    out = Path(args.out or "synthetic.csv")
    with out.open("w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle)
        writer.writerow(raw.column_names)
        for row in raw.rows:
            writer.writerow([f"{cell:.17g}" for cell in row])
    print(f"wrote {raw.n_rows} rows to {out}")
    return 0


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The CLI parser, built once per process and reused by ``main``."""
    parser = argparse.ArgumentParser(
        prog="it2anfis",
        description="Interval type-2 neuro-fuzzy regression toolkit")
    sub = parser.add_subparsers(dest="command", required=True)

    p_train = sub.add_parser("train", help="fit a model and save it")
    _add_data_flags(p_train)
    _add_optimizer_flags(p_train)
    p_train.add_argument("--rules", type=int, default=7)
    p_train.add_argument("--mode", choices=sorted(LABEL_MODES),
                         default="it2")
    p_train.add_argument("--out", help="model file (default: model.json)")
    p_train.add_argument("--log", help="epoch log path (default: derived "
                                       "from --out)")
    p_train.set_defaults(func=cmd_train)

    p_pred = sub.add_parser("predict", help="batch predictions to CSV")
    p_pred.add_argument("--model", required=True)
    p_pred.add_argument("--data", required=True,
                        help="CSV containing the model's feature columns")
    p_pred.add_argument("--out", help="output CSV (default: "
                                      "predictions.csv)")
    p_pred.set_defaults(func=cmd_predict)

    p_exp = sub.add_parser("explain", help="uncertainty report and plots")
    p_exp.add_argument("--model", required=True)
    p_exp.add_argument("--data", help="optional instances CSV for "
                                      "instance-level intervals")
    p_exp.add_argument("--out", help="report JSON (default: report.json)")
    p_exp.add_argument("--svg", action="store_true",
                       help="write per-rule membership plots")
    p_exp.add_argument("--text", action="store_true",
                       help="write a readable IF-THEN rule dump")
    p_exp.set_defaults(func=cmd_explain)

    p_eval = sub.add_parser("evaluate", help="metrics of a saved model "
                                             "on a labeled CSV")
    p_eval.add_argument("--model", required=True)
    p_eval.add_argument("--data", required=True)
    p_eval.set_defaults(func=cmd_evaluate)

    p_sweep = sub.add_parser("sweep", help="rule-count x seed benchmark "
                                           "grid")
    _add_data_flags(p_sweep)
    _add_optimizer_flags(p_sweep)
    p_sweep.add_argument("--rules-list", default=",".join(
                             map(str, SweepConfig.rule_counts)),
                         help="comma-separated rule counts (default: "
                              f"{min(SweepConfig.rule_counts)}.."
                              f"{max(SweepConfig.rule_counts)})")
    p_sweep.add_argument("--seeds", type=int, default=SweepConfig.n_seeds,
                         help="seeds per (mode, rule count), at most "
                              f"{MAX_SEEDS}")
    p_sweep.add_argument("--modes", default=",".join(
                             MODE_LABELS[m] for m in SweepConfig.modes),
                         help="comma-separated subset of it2,anfis0,anfis1")
    p_sweep.add_argument("--parallelism", type=int,
                         default=SweepConfig.parallelism)
    p_sweep.add_argument("--out", help="long-form CSV (default: sweep.csv)")
    p_sweep.add_argument("--svg", action="store_true",
                         help="write a mean/min-max chart")
    p_sweep.set_defaults(func=cmd_sweep)

    p_synth = sub.add_parser("synth", help="write a synthetic CSV")
    p_synth.add_argument("--seed", type=int, default=SyntheticSpec.seed)
    p_synth.add_argument("--synth-samples", type=int,
                         default=SyntheticSpec.n_samples)
    p_synth.add_argument("--synth-features", type=int,
                         default=SyntheticSpec.n_features)
    p_synth.add_argument("--synth-latent-rules", type=int,
                         default=SyntheticSpec.n_latent_rules)
    p_synth.add_argument("--synth-noise", type=float,
                         default=SyntheticSpec.noise_std)
    p_synth.add_argument("--out", help="output CSV (default: "
                                       "synthetic.csv)")
    p_synth.set_defaults(func=cmd_synth)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except Exception as exc:  # noqa: BLE001 - CLI boundary
        print(f"error: {exc}", file=sys.stderr)
        return 1


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
