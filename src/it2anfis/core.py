"""Interval type-2 TSK rule base: parameters, inference, type reduction.

A rule base holds R first-order Takagi-Sugeno rules over F inputs.  Each
antecedent is a Gaussian with an uncertain mean confined to [c1, c2] and
a fixed spread sigma, so membership is an interval [mu_L, mu_U] rather
than a single value (the footprint of uncertainty), defined once over
arrays by ``kernels.membership_offsets`` and ``kernels.gaussian``.  Rule
outputs are affine in the input; the lower and upper firing strengths
each produce a crisp output, and a fixed blend factor q mixes the two.

Data is stored as dense per-rule arrays (struct-of-arrays) so batch
inference runs as whole-array numpy kernels.  The inference chain is
written once: ``strengths`` fires the rules and normalizes their
strengths with the uniform fallback (``kernels.normalize``), and
``forward`` reduces given normalized strengths against the affine rule
outputs and blends the two sides with q (``kernels.reduce``).  The
normalized strengths change only with the antecedents, so ``forward``
takes them as an argument: the trainer holds them for its training
split, and ``predict_arrays``, the one row-level inference API, computes
them per row chunk of a fixed byte budget (``chunk_rows``), so its
memory does not grow with the number of rows.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from .kernels import (Strengths, fire as _fire_batch, fire_collapsed,
                      normalize, reduce)

SIGMA_MIN = 0.05
#: narrowest interval c2 - c1 that training's constraint repair leaves
MIN_SEPARATION = 0.05
#: largest parameter magnitude a rule base may hold: below it the squared
#: offsets and the affine consequents of inputs near [0, 1] stay finite
PARAM_LIMIT = 1e150

#: sets the rows per inference chunk (``chunk_rows``) to those whose
#: rows x R x F float64s fill it: 806 rows at R=50, F=13.  Inference
#: builds no (rows, R, F) array; the budget bounds a chunk's
#: temporaries, which ``predict_arrays`` traces at about 3.1 MB above
#: its output at that size
PREDICT_CHUNK_BYTES = 4 * 2**20


def check_q(q: float) -> None:
    """Raise unless the blend weight q lies in [0, 1] (NaN fails)."""
    if not 0.0 <= q <= 1.0:
        raise ValueError(f"q must lie in [0, 1], got {q}")


class Mode(enum.Enum):
    """Rule-base flavor.

    IT2 keeps the full uncertain-mean interval.  The TYPE1 modes collapse
    c1 = c2 so membership degenerates to an ordinary Gaussian; ORDER0
    additionally pins every consequent slope to zero (constant rule
    outputs), ORDER1 keeps affine consequents.
    """

    IT2 = "it2"
    TYPE1_ORDER0 = "type1_order0"
    TYPE1_ORDER1 = "type1_order1"

    @property
    def is_type1(self) -> bool:
        return self is not Mode.IT2


@dataclass
class RuleBase:
    """Dense parameter store for an R-rule, F-feature system.

    Arrays c1, c2, sigma and w are (R, F); b is (R,).  q in [0, 1]
    weights the lower output in the final blend.
    """

    c1: np.ndarray
    c2: np.ndarray
    sigma: np.ndarray
    w: np.ndarray
    b: np.ndarray
    q: float = 0.5
    mode: Mode = Mode.IT2

    def __post_init__(self) -> None:
        for name in ("c1", "c2", "sigma", "w"):
            arr = np.ascontiguousarray(getattr(self, name), dtype=np.float64)
            if arr.ndim != 2:
                raise ValueError(f"{name} must be 2-d (rules x features)")
            setattr(self, name, arr)
        self.b = np.ascontiguousarray(self.b, dtype=np.float64)
        if self.b.ndim != 1:
            raise ValueError("b must be 1-d (one bias per rule)")

    @property
    def n_rules(self) -> int:
        return self.c1.shape[0]

    @property
    def n_features(self) -> int:
        return self.c1.shape[1]

    def validate(self) -> None:
        """Check structural and value invariants, raising on violation."""
        R, F = self.c1.shape
        if R < 1 or F < 1:
            raise ValueError("need at least one rule and one feature")
        for name in ("c2", "sigma", "w"):
            if getattr(self, name).shape != (R, F):
                raise ValueError(f"{name} shape mismatch: want {(R, F)}")
        if self.b.shape != (R,):
            raise ValueError(f"b shape mismatch: want ({R},)")
        arrays = (self.c1, self.c2, self.sigma, self.w, self.b)
        if not all(np.all(np.abs(a) <= PARAM_LIMIT) for a in arrays):
            raise ValueError(f"rule base parameters must be finite and at "
                             f"most {PARAM_LIMIT:g} in magnitude")
        check_q(self.q)
        if np.any(self.c1 > self.c2):
            raise ValueError("every antecedent needs c1 <= c2")
        if np.any(self.sigma < SIGMA_MIN):
            raise ValueError(f"every sigma must be >= {SIGMA_MIN}")
        if self.mode.is_type1 and np.any(self.c1 != self.c2):
            raise ValueError("type-1 modes require c1 == c2 everywhere")
        if self.mode is Mode.TYPE1_ORDER0 and np.any(self.w != 0.0):
            raise ValueError("order-0 consequents must have zero slopes")

    def copy(self) -> "RuleBase":
        return RuleBase(self.c1.copy(), self.c2.copy(), self.sigma.copy(),
                        self.w.copy(), self.b.copy(), q=self.q, mode=self.mode)


def _as_rows(rb: RuleBase, X: np.ndarray) -> np.ndarray:
    X = np.ascontiguousarray(X, dtype=np.float64)
    if X.ndim != 2 or X.shape[1] != rb.n_features:
        raise ValueError(f"input arity does not match: X must be "
                         f"(N, {rb.n_features}), got shape {X.shape}")
    return X


def strengths(rb: RuleBase, X: np.ndarray) -> Strengths:
    """Fire every rule on the (N, F) inputs and normalize the strengths.

    The rule base's mode picks the fire.  IT2 fires and stores both
    sides.  A type-1 mode fires its collapsed bounds once
    (``kernels.fire_collapsed``) and stores that one side, which both
    sides would equal bit for bit; it raises ValueError, naming the
    mode, if c1 and c2 differ, since one side would then be wrong.
    """
    X = _as_rows(rb, X)
    if not rb.mode.is_type1:
        return normalize(*_fire_batch(X, rb.c1, rb.c2, rb.sigma))
    if not np.array_equal(rb.c1, rb.c2):
        raise ValueError(f"{rb.mode.value} rule base needs c1 == c2 "
                         f"everywhere to fire one side")
    return normalize(fire_collapsed(X, rb.c1, rb.sigma))


def forward(rb: RuleBase, X: np.ndarray,
            f: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Run the inference chain's tail on a batch of rows.

    ``f`` is the (N, S, R) normalized strengths of the (N, F) inputs
    under the current antecedents (``Strengths.f``).  Evaluates the
    affine rule outputs, reduces and blends the two sides, and returns
    the (N,) lower, upper and blended outputs (y_l, y_u, y_p).
    """
    X = _as_rows(rb, X)
    return reduce(f, X @ rb.w.T + rb.b, rb.q)


def chunk_rows(rb: RuleBase) -> int:
    """Rows per inference chunk: ``PREDICT_CHUNK_BYTES`` over the 8 R F
    bytes of a row's R x F float64s."""
    return max(1, PREDICT_CHUNK_BYTES // (8 * rb.n_rules * rb.n_features))


def predict_arrays(rb: RuleBase,
                   X: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Batch inference returning (y_lower, y_upper, y_pred) arrays.

    The one row-level inference API, behind ``predict``, ``evaluate``,
    ``explain``, validation and the sweep metrics.  Rows are independent,
    so each chunk of ``chunk_rows`` rows is fired, normalized and reduced
    on its own, and its strengths are freed before the next is fired.
    """
    X = _as_rows(rb, X)
    out = np.empty((3, X.shape[0]))
    rows = chunk_rows(rb)
    for lo in range(0, X.shape[0], rows):
        part = slice(lo, lo + rows)
        out[:, part] = forward(rb, X[part], strengths(rb, X[part]).f)
    return out[0], out[1], out[2]
