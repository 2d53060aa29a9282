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


def _field(path: Path, where: str, block, key: str):
    if not isinstance(block, dict):
        raise ModelFormatError(f"{path}: {where} is not a JSON object")
    if key not in block:
        raise ModelFormatError(f"{path}: {where} missing field {key!r}")
    return block[key]


def _is_finite_number(value) -> bool:
    """True for a finite JSON number: an int or a float, never a bool."""
    try:
        return type(value) in (int, float) and math.isfinite(value)
    except OverflowError:  # an integer beyond the float range
        return False


def _real(path: Path, where: str, block, key: str) -> float:
    value = _field(path, where, block, key)
    if not _is_finite_number(value):
        raise ModelFormatError(f"{path}: {where} field {key!r} is not a "
                               f"finite number: {value!r}")
    return float(value)


def _count(path: Path, doc, key: str) -> int:
    value = _field(path, "document", doc, key)
    if type(value) is not int or value < 1:
        raise ModelFormatError(f"{path}: field {key!r} must be a positive "
                               f"integer, got {value!r}")
    return value


def _typed(path: Path, where: str, block, key: str, kind: type):
    value = _field(path, where, block, key)
    if not isinstance(value, kind):
        raise ModelFormatError(f"{path}: {where} field {key!r} is not a "
                               f"{kind.__name__}: {value!r}")
    return value


def load_model(path: str | Path) -> tuple[RuleBase, list[FeatureScaler],
                                          TargetScaler, dict]:
    """Read a model file back into (RuleBase, scalers, provenance).

    Any file that is not a well-formed model raises ModelFormatError
    naming the file and the field: text that is not UTF-8 JSON, an
    unsupported version, a missing field or one of the wrong JSON type
    (``F`` and ``R`` must be positive integers, every parameter a finite
    number), any arity disagreeing with R and F, a degenerate scaler
    (max > min and std > 0 are required), or parameters the rule base
    rejects.  A missing file raises FileNotFoundError.
    """
    path = Path(path)
    try:
        doc = json.loads(path.read_text(encoding="utf-8"))
    except (ValueError, RecursionError) as exc:  # also UnicodeDecodeError
        raise ModelFormatError(f"{path}: not valid JSON: {exc}") from exc

    version = _field(path, "document", doc, "format_version")
    if type(version) is not int or version != FORMAT_VERSION:
        raise ModelFormatError(f"{path}: unsupported format_version "
                               f"{version!r}, expected {FORMAT_VERSION}")
    mode_value = _field(path, "document", doc, "mode")
    try:
        mode = Mode(mode_value)
    except ValueError as exc:
        raise ModelFormatError(f"{path}: unknown mode "
                               f"{mode_value!r}") from exc
    q = _real(path, "document", doc, "q")
    F = _count(path, doc, "F")
    R = _count(path, doc, "R")

    raw_scalers = _typed(path, "document", doc, "feature_scalers", list)
    if len(raw_scalers) != F:
        raise ModelFormatError(f"{path}: expected {F} feature scalers, "
                               f"found {len(raw_scalers)}")
    feature_scalers = []
    for k, block in enumerate(raw_scalers):
        name = _typed(path, f"feature scaler {k}", block, "name", str)
        label = f"feature scaler {name!r}"
        s = FeatureScaler(name=name, min=_real(path, label, block, "min"),
                          max=_real(path, label, block, "max"))
        if not s.max > s.min:
            raise ModelFormatError(f"{path}: {label} field 'max' must exceed "
                                   f"min={s.min!r}, got {s.max!r}")
        feature_scalers.append(s)
    block = _field(path, "document", doc, "target_scaler")
    name = _typed(path, "target scaler", block, "name", str)
    label = f"target scaler {name!r}"
    target_scaler = TargetScaler(name=name,
                                 mean=_real(path, label, block, "mean"),
                                 std=_real(path, label, block, "std"))
    if not target_scaler.std > 0.0:
        raise ModelFormatError(f"{path}: {label} field 'std' must be "
                               f"positive, got {target_scaler.std!r}")

    rules = _typed(path, "document", doc, "rules", list)
    if len(rules) != R:
        raise ModelFormatError(f"{path}: declared R={R} but found "
                               f"{len(rules)} rule blocks")
    params = {name: np.empty((R, F)) for name in ("c1", "c2", "sigma", "w")}
    b = np.empty(R)
    for j, block in enumerate(rules):
        for name, dest in params.items():
            vec = _typed(path, f"rule {j}", block, name, list)
            if len(vec) != F:
                raise ModelFormatError(
                    f"{path}: rule {j} field {name!r} has arity "
                    f"{len(vec)}, expected {F}")
            if not all(map(_is_finite_number, vec)):
                raise ModelFormatError(
                    f"{path}: rule {j} field {name!r} holds a value that "
                    f"is not a finite number: {vec!r}")
            dest[j] = vec
        b[j] = _real(path, f"rule {j}", block, "b")

    rb = RuleBase(**params, b=b, q=q, mode=mode)
    try:
        rb.validate()
    except ValueError as exc:
        raise ModelFormatError(f"{path}: {exc}") from exc
    return rb, feature_scalers, target_scaler, doc.get("provenance", {})
