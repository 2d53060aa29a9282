"""Rule-base construction via Latin-hypercube stratified centers.

Each feature's range is cut into R equal strata and every rule draws its
center from a distinct stratum (one uniform offset per cell), with an
independent seeded permutation of strata per feature so the centers
cover the input space rather than its diagonal.  The uncertain-mean
interval and the spread are sized from a per-feature partition width;
consequents start near zero.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import SIGMA_MIN, Mode, RuleBase

ALPHA_DEFAULT = 0.2


@dataclass
class InitConfig:
    """Knobs for building an initial rule base.

    alpha scales the width of the uncertain-mean interval relative to
    the partition width.
    """

    n_rules: int
    alpha: float = ALPHA_DEFAULT
    seed: int = 0
    mode: Mode = Mode.IT2

    def validate(self) -> None:
        if self.n_rules < 1:
            raise ValueError("n_rules must be >= 1")
        if not 0.0 < self.alpha <= 1.0:
            raise ValueError(f"alpha must lie in (0, 1], got {self.alpha}")


def lhs_centers(feature_ranges, R: int, seed: int) -> np.ndarray:
    """Stratified rule centers, one per stratum per feature.

    For feature f with range [lo, hi), stratum s covers
    [lo + s*w, lo + (s+1)*w) with w = (hi - lo)/R; rule j receives a
    uniformly random point of stratum perm[j], where perm is a seeded
    per-feature permutation.

    Returns an (R, F) matrix of centers.
    """
    rng = np.random.default_rng(seed)
    F = len(feature_ranges)
    centers = np.empty((R, F))
    for f, (lo, hi) in enumerate(feature_ranges):
        if not (hi > lo):
            raise ValueError(f"degenerate range for feature {f}: "
                             f"[{lo}, {hi}]")
        strata = rng.permutation(R)
        offsets = rng.random(R)
        width = (hi - lo) / R
        centers[:, f] = lo + (strata + offsets) * width
    return centers


def _ceil_root(R: int, F: int) -> int:
    """Smallest integer m with m**F >= R (exact, no float pow)."""
    m = 1
    while m ** F < R:
        m += 1
    return m


def partition_width(feature_range, R: int, F: int) -> float:
    """Per-feature granularity implied by spreading R rules over F dims."""
    lo, hi = feature_range
    return (hi - lo) / _ceil_root(R, F)


def build_rulebase(cfg: InitConfig, feature_ranges) -> RuleBase:
    """Assemble a fresh RuleBase, deterministic under cfg.seed.

    Antecedent intervals are centered on the LHS draws with half-width
    alpha * w_f / 2 (collapsed to a point in the type-1 modes); sigma is
    half the partition width, floored at ``core.SIGMA_MIN``, the floor
    ``RuleBase.validate`` enforces.  Consequent slopes and biases are
    drawn from a zero-mean normal with standard deviation 0.01 (slopes
    pinned to zero in order-0 mode).
    """
    cfg.validate()
    R = cfg.n_rules
    F = len(feature_ranges)
    centers = lhs_centers(feature_ranges, R, cfg.seed)

    widths = np.array([partition_width(rng_f, R, F)
                       for rng_f in feature_ranges])
    if cfg.mode.is_type1:
        c1 = centers.copy()
        c2 = centers.copy()
    else:
        half = 0.5 * cfg.alpha * widths
        c1 = centers - half
        c2 = centers + half
    sigma = np.broadcast_to(np.maximum(0.5 * widths, SIGMA_MIN),
                            (R, F)).copy()

    # consequent draws come after the center draws so both reuse one
    # seeded stream without interleaving
    rng = np.random.default_rng((cfg.seed, 1))
    w = rng.normal(0.0, 0.01, size=(R, F))
    b = rng.normal(0.0, 0.01, size=R)
    if cfg.mode is Mode.TYPE1_ORDER0:
        w[:] = 0.0

    rb = RuleBase(c1=c1, c2=c2, sigma=sigma, w=w, b=b, q=0.5, mode=cfg.mode)
    rb.validate()
    return rb


def ranges_from_training(X: np.ndarray,
                         train_idx: np.ndarray) -> list[tuple[float, float]]:
    """Per-feature (min, max) observed on the training rows."""
    Xt = X[train_idx]
    return [(float(Xt[:, f].min()), float(Xt[:, f].max()))
            for f in range(X.shape[1])]
