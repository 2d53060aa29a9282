"""Command-line front end: train, predict, explain, evaluate, sweep, synth.

Data comes from a CSV file (--data) or the built-in synthetic generator
(--synthetic).  Model modes are selected with --mode {it2,anfis0,anfis1}.
All commands exit 0 on success and nonzero with a message on stderr
otherwise.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
from pathlib import Path

import numpy as np

from . import kernels
from .core import predict_arrays
from .dataset import (FeatureScaler, RawTable, SyntheticSpec,
                      generate_synthetic, inverse_target, load_csv,
                      load_features, normalize_and_split)
from .explainer import (explain_instance, explain_model, export_rules_text,
                        render_rule_svg)
from .initializer import InitConfig, build_rulebase, ranges_from_training
from .metrics import evaluate
from .modelio import load_model, save_model
from .sweep import (LABEL_MODES, MAX_SEEDS, SweepConfig, aggregate,
                    render_sweep_svg, split_metrics, summary_dict, sweep,
                    write_csv)
from .trainer import TrainConfig, train

PREDICTION_COLUMNS = ("index", "y_pred_mwh", "interval_lo_mwh",
                      "interval_hi_mwh", "width_mwh")


def _add_data_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--data", help="CSV file with a header row")
    p.add_argument("--target", default="energy_mwh",
                   help="target column name (default: energy_mwh)")
    p.add_argument("--date-col", default=None,
                   help="date column to skip; never a feature")
    p.add_argument("--synthetic", action="store_true",
                   help="generate data instead of reading --data")
    p.add_argument("--synth-samples", type=int, default=1000)
    p.add_argument("--synth-features", type=int, default=13)
    p.add_argument("--synth-latent-rules", type=int, default=4)
    p.add_argument("--synth-noise", type=float, default=0.05)


def _add_optimizer_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--alpha", type=float, default=0.2)
    p.add_argument("--q", type=float, default=0.5)
    p.add_argument("--max-epochs", type=int, default=500)
    p.add_argument("--batch-size", type=int, default=64)
    p.add_argument("--patience", type=int, default=50)
    p.add_argument("--eta-cons", type=float, default=0.01)
    p.add_argument("--eta-ant", type=float, default=0.001)
    p.add_argument("--lambda-l1", type=float, default=0.05)
    p.add_argument("--lambda-l2", type=float, default=0.001)


def _load_raw(args) -> RawTable:
    if args.synthetic:
        spec = SyntheticSpec(n_samples=args.synth_samples,
                             n_features=args.synth_features,
                             n_latent_rules=args.synth_latent_rules,
                             noise_std=args.synth_noise,
                             seed=getattr(args, "seed", 0))
        return generate_synthetic(spec)
    if not args.data:
        raise ValueError("either --data or --synthetic is required")
    return load_csv(args.data, args.target, args.date_col)


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
    raw = _load_raw(args)
    data = normalize_and_split(raw, args.seed)
    ranges = ranges_from_training(data.X, data.train_idx)
    mode = LABEL_MODES[args.mode]
    init = InitConfig(n_rules=args.rules, alpha=args.alpha, seed=args.seed,
                      mode=mode)
    rb = build_rulebase(init, ranges)
    rb.q = args.q

    out = Path(args.out or "model.json")
    log_path = Path(args.log) if args.log else out.with_suffix(".log.jsonl")
    cfg = _train_config(args, log_path)
    best, state = train(rb, data, cfg)

    print(f"backend={kernels.active_backend()} mode={args.mode} "
          f"rules={args.rules} seed={args.seed} "
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
    with out.open("w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle)
        writer.writerow(PREDICTION_COLUMNS)
        for i in range(X.shape[0]):
            writer.writerow([i, f"{y_p[i]:.17g}", f"{lo[i]:.17g}",
                             f"{hi[i]:.17g}", f"{hi[i] - lo[i]:.17g}"])
    print(f"wrote {X.shape[0]} predictions to {out}")
    return 0


def cmd_explain(args) -> int:
    rb, feature_scalers, target_scaler, _ = load_model(args.model)
    names = [s.name for s in feature_scalers]
    report = explain_model(rb)
    if args.data:
        X = _scale_features(load_features(args.data, names),
                            feature_scalers)
        report.per_instance = explain_instance(rb, X, target_scaler)[:3]

    out = Path(args.out or "report.json")
    out.write_text(json.dumps(report.as_dict(), indent=2) + "\n",
                   encoding="utf-8")
    print(f"report written to {out}")

    if args.text:
        text_path = out.with_suffix(".rules.txt")
        text_path.write_text(
            export_rules_text(rb, names, feature_scalers, target_scaler),
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
    raw = load_csv(args.data, target_scaler.name, args.date_col)
    names = [s.name for s in feature_scalers]
    missing = [c for c in names if c not in raw.column_names]
    if missing:
        raise ValueError(f"{args.data}: missing model feature columns "
                         f"{missing}")
    cols = [raw.column_names.index(c) for c in names]
    X = _scale_features(raw.rows[:, cols], feature_scalers)
    y_true = raw.rows[:, raw.column_names.index(target_scaler.name)]

    _, _, y_p = predict_arrays(rb, X)
    m = evaluate(y_true, inverse_target(y_p, target_scaler))
    _print_metrics("eval", m.as_dict())
    if not m.mape_defined:
        print("note: MAPE undefined (zero-valued target present)")
    return 0


def cmd_sweep(args) -> int:
    raw = _load_raw(args)
    if args.rules_list:
        rule_counts = tuple(int(tok) for tok in args.rules_list.split(","))
    else:
        rule_counts = tuple(range(args.rules_min, args.rules_max + 1))
    modes = tuple(LABEL_MODES[tok] for tok in args.modes.split(","))
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
    spec = SyntheticSpec(n_samples=args.synth_samples,
                         n_features=args.synth_features,
                         n_latent_rules=args.synth_latent_rules,
                         noise_std=args.synth_noise, seed=args.seed)
    raw = generate_synthetic(spec)
    out = Path(args.out or "synthetic.csv")
    with out.open("w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle)
        writer.writerow(raw.column_names)
        for row in raw.rows:
            writer.writerow([f"{cell:.17g}" for cell in row])
    print(f"wrote {raw.n_rows} rows to {out}")
    return 0


def build_parser() -> argparse.ArgumentParser:
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
    p_eval.add_argument("--date-col", default=None)
    p_eval.set_defaults(func=cmd_evaluate)

    p_sweep = sub.add_parser("sweep", help="rule-count x seed benchmark "
                                           "grid")
    _add_data_flags(p_sweep)
    _add_optimizer_flags(p_sweep)
    p_sweep.add_argument("--rules-min", type=int, default=5)
    p_sweep.add_argument("--rules-max", type=int, default=50)
    p_sweep.add_argument("--rules-list",
                         help="comma-separated rule counts, overrides "
                              "--rules-min/--rules-max")
    p_sweep.add_argument("--seeds", type=int, default=10,
                         help="seeds per (mode, rule count), at most "
                              f"{MAX_SEEDS}")
    p_sweep.add_argument("--modes", default="it2",
                         help="comma-separated subset of it2,anfis0,anfis1")
    p_sweep.add_argument("--parallelism", type=int, default=1)
    p_sweep.add_argument("--out", help="long-form CSV (default: sweep.csv)")
    p_sweep.add_argument("--svg", action="store_true",
                         help="write a mean/min-max chart")
    p_sweep.set_defaults(func=cmd_sweep)

    p_synth = sub.add_parser("synth", help="write a synthetic CSV")
    p_synth.add_argument("--seed", type=int, default=0)
    p_synth.add_argument("--synth-samples", type=int, default=1000)
    p_synth.add_argument("--synth-features", type=int, default=13)
    p_synth.add_argument("--synth-latent-rules", type=int, default=4)
    p_synth.add_argument("--synth-noise", type=float, default=0.05)
    p_synth.add_argument("--out", help="output CSV (default: "
                                       "synthetic.csv)")
    p_synth.set_defaults(func=cmd_synth)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except Exception as exc:  # noqa: BLE001 - CLI boundary
        print(f"error: {exc}", file=sys.stderr)
        return 1


def entrypoint() -> None:
    sys.exit(main())
