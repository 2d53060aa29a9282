"""Versioned JSON persistence for rule bases and their scalers.

Reals are serialized as their shortest exact decimal form (Python's
default float formatting), so a save/load cycle reproduces every
parameter bit for bit.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np

from .core import Mode, RuleBase
from .dataset import FeatureScaler, TargetScaler

FORMAT_VERSION = 1


class ModelFormatError(ValueError):
    """Raised when a model file violates the schema or version."""


def save_model(rb: RuleBase, path: str | Path,
               feature_scalers: list[FeatureScaler],
               target_scaler: TargetScaler,
               provenance: dict | None = None) -> None:
    """Write the rule base and scalers as a versioned JSON document."""
    if len(feature_scalers) != rb.n_features:
        raise ValueError("one feature scaler per feature is required")
    doc = {
        "format_version": FORMAT_VERSION,
        "mode": rb.mode.value,
        "q": rb.q,
        "F": rb.n_features,
        "R": rb.n_rules,
        "feature_scalers": [{"name": s.name, "min": s.min, "max": s.max}
                            for s in feature_scalers],
        "target_scaler": {"name": target_scaler.name,
                          "mean": target_scaler.mean,
                          "std": target_scaler.std},
        "rules": [{"c1": rb.c1[j].tolist(), "c2": rb.c2[j].tolist(),
                   "sigma": rb.sigma[j].tolist(), "w": rb.w[j].tolist(),
                   "b": float(rb.b[j])}
                  for j in range(rb.n_rules)],
    }
    if provenance:
        doc["provenance"] = provenance
    Path(path).write_text(json.dumps(doc, indent=2) + "\n", encoding="utf-8")


def _require(doc: dict, key: str):
    if key not in doc:
        raise ModelFormatError(f"model file missing field {key!r}")
    return doc[key]


def _require_finite(path: Path, label: str, **fields: float) -> None:
    for field, value in fields.items():
        if not math.isfinite(value):
            raise ModelFormatError(f"{path}: {label} field {field!r} is "
                                   f"not finite: {value!r}")


def load_model(path: str | Path) -> tuple[RuleBase, list[FeatureScaler],
                                          TargetScaler, dict]:
    """Read a model file back into (RuleBase, scalers, provenance).

    Raises ModelFormatError on an unsupported version, a missing field,
    any arity disagreeing with the declared R and F, or a degenerate
    scaler: every min, max, mean and std must be finite, with max > min
    and std > 0.
    """
    path = Path(path)
    try:
        doc = json.loads(path.read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise ModelFormatError(f"{path}: not valid JSON: {exc}") from exc

    version = _require(doc, "format_version")
    if version != FORMAT_VERSION:
        raise ModelFormatError(f"{path}: unsupported format_version "
                               f"{version!r}, expected {FORMAT_VERSION}")
    try:
        mode = Mode(_require(doc, "mode"))
    except ValueError as exc:
        raise ModelFormatError(f"{path}: unknown mode "
                               f"{doc.get('mode')!r}") from exc
    q = float(_require(doc, "q"))
    F = int(_require(doc, "F"))
    R = int(_require(doc, "R"))

    raw_scalers = _require(doc, "feature_scalers")
    if len(raw_scalers) != F:
        raise ModelFormatError(f"{path}: expected {F} feature scalers, "
                               f"found {len(raw_scalers)}")
    feature_scalers = [FeatureScaler(name=str(_require(s, "name")),
                                     min=float(_require(s, "min")),
                                     max=float(_require(s, "max")))
                       for s in raw_scalers]
    for s in feature_scalers:
        label = f"feature scaler {s.name!r}"
        _require_finite(path, label, min=s.min, max=s.max)
        if not s.max > s.min:
            raise ModelFormatError(f"{path}: {label} field 'max' must exceed "
                                   f"min={s.min!r}, got {s.max!r}")
    raw_target = _require(doc, "target_scaler")
    target_scaler = TargetScaler(name=str(_require(raw_target, "name")),
                                 mean=float(_require(raw_target, "mean")),
                                 std=float(_require(raw_target, "std")))
    label = f"target scaler {target_scaler.name!r}"
    _require_finite(path, label, mean=target_scaler.mean,
                    std=target_scaler.std)
    if not target_scaler.std > 0.0:
        raise ModelFormatError(f"{path}: {label} field 'std' must be "
                               f"positive, got {target_scaler.std!r}")

    rules = _require(doc, "rules")
    if len(rules) != R:
        raise ModelFormatError(f"{path}: declared R={R} but found "
                               f"{len(rules)} rule blocks")
    c1 = np.empty((R, F))
    c2 = np.empty((R, F))
    sigma = np.empty((R, F))
    w = np.empty((R, F))
    b = np.empty(R)
    for j, block in enumerate(rules):
        for name, dest in (("c1", c1), ("c2", c2),
                           ("sigma", sigma), ("w", w)):
            vec = _require(block, name)
            if len(vec) != F:
                raise ModelFormatError(
                    f"{path}: rule {j} field {name!r} has arity "
                    f"{len(vec)}, expected {F}")
            dest[j] = vec
        b[j] = float(_require(block, "b"))

    rb = RuleBase(c1=c1, c2=c2, sigma=sigma, w=w, b=b, q=q, mode=mode)
    rb.validate()
    return rb, feature_scalers, target_scaler, doc.get("provenance", {})
