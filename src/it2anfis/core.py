"""Interval type-2 TSK rule base: memberships, firing, type reduction.

A rule base holds R first-order Takagi-Sugeno rules over F inputs.  Each
antecedent is a Gaussian with an uncertain mean confined to [c1, c2] and
a fixed spread sigma, so membership is an interval [mu_L, mu_U] rather
than a single value (the footprint of uncertainty).  Rule outputs are
affine in the input; the lower and upper firing strengths each produce a
crisp output, and a fixed blend factor q mixes the two.

Data is stored as dense per-rule arrays (struct-of-arrays) so batch
inference runs as whole-array numpy kernels.  The inference chain
(fire, normalize with the uniform fallback, affine consequents, q blend)
is written once: ``forward`` fires the rules, or takes strengths the
caller already holds, and hands them to ``kernels.type_reduce``;
prediction, both gradients, the q update and the explainer all read its
result.  ``predict_arrays``, the one row-level inference API, and the
explainer's instance level run it over row chunks of a fixed byte budget
(``chunk_rows``), so their memory does not grow with the number of rows.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from .kernels import Reduced, fire as _fire_batch, type_reduce

SIGMA_MIN = 0.05
MIN_SEPARATION = 0.05
#: largest parameter magnitude a rule base may hold: below it the squared
#: offsets and the affine consequents of inputs near [0, 1] stay finite
PARAM_LIMIT = 1e150

#: bytes of a (rows, R, F) float64 array, which sets the rows per
#: inference chunk (``chunk_rows``): 806 rows at R=50, F=13
PREDICT_CHUNK_BYTES = 4 * 2**20


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
class IT2Antecedent:
    """One fuzzy set: Gaussian with mean uncertain within [c1, c2].

    Parameters
    ----------
    c1, c2 : float
        Lower and upper bound of the uncertain mean, in normalized
        feature units.  c1 <= c2.
    sigma : float
        Standard deviation shared by both bounding Gaussians.
    """

    c1: float
    c2: float
    sigma: float

    def validate(self) -> None:
        if not (math.isfinite(self.c1) and math.isfinite(self.c2)):
            raise ValueError("antecedent bounds must be finite")
        if self.c1 > self.c2:
            raise ValueError(f"c1 ={self.c1} exceeds c2 ={self.c2}")
        if not (math.isfinite(self.sigma) and self.sigma >= SIGMA_MIN):
            raise ValueError(f"sigma must be >= {SIGMA_MIN}, got {self.sigma}")


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
        if not 0.0 <= self.q <= 1.0:
            raise ValueError(f"q must lie in [0, 1], got {self.q}")
        if np.any(self.c1 > self.c2):
            raise ValueError("every antecedent needs c1 <= c2")
        if np.any(self.sigma < SIGMA_MIN):
            raise ValueError(f"every sigma must be >= {SIGMA_MIN}")
        if self.mode.is_type1 and np.any(self.c1 != self.c2):
            raise ValueError("type-1 modes require c1 == c2 everywhere")
        if self.mode is Mode.TYPE1_ORDER0 and np.any(self.w != 0.0):
            raise ValueError("order-0 consequents must have zero slopes")

    def antecedent(self, j: int, f: int) -> IT2Antecedent:
        """Object view of one antecedent (copies the scalars)."""
        return IT2Antecedent(float(self.c1[j, f]), float(self.c2[j, f]),
                             float(self.sigma[j, f]))

    def copy(self) -> "RuleBase":
        return RuleBase(self.c1.copy(), self.c2.copy(), self.sigma.copy(),
                        self.w.copy(), self.b.copy(), q=self.q, mode=self.mode)


def membership_bounds(ant: IT2Antecedent, x: float) -> tuple[float, float]:
    """Lower and upper membership of a scalar input.

    The upper bound is 1 on the plateau [c1, c2] and follows the nearer
    bounding Gaussian outside it.  The lower bound follows the farther
    Gaussian, switching at the interval midpoint; a tie at the midpoint
    takes the c2 branch.

    Returns
    -------
    (mu_L, mu_U) : tuple of float
        0 <= mu_L <= mu_U <= 1.  mu_L is positive in exact arithmetic
        but is 0.0 once exp underflows (0.5 z**2 beyond about 745 for
        the farther mean).  ``kernels.fire`` takes one exp of 0.5 z**2
        summed over a rule's features, so a rule's strength is 0.0 once
        that sum passes about 745, even where no single factor would
        underflow; ``kernels.STRENGTH_FLOOR`` handles such rules
        downstream.
    """
    c_mid = 0.5 * (ant.c1 + ant.c2)
    if x <= c_mid:
        z = (x - ant.c2) / ant.sigma
    else:
        z = (x - ant.c1) / ant.sigma
    mu_l = math.exp(-0.5 * z * z)

    if x < ant.c1:
        z = (x - ant.c1) / ant.sigma
        mu_u = math.exp(-0.5 * z * z)
    elif x > ant.c2:
        z = (x - ant.c2) / ant.sigma
        mu_u = math.exp(-0.5 * z * z)
    else:
        mu_u = 1.0
    return (mu_l, mu_u)


def _as_rows(rb: RuleBase, X: np.ndarray) -> np.ndarray:
    X = np.ascontiguousarray(X, dtype=np.float64)
    if X.ndim != 2 or X.shape[1] != rb.n_features:
        raise ValueError(f"input arity does not match: X must be "
                         f"(N, {rb.n_features}), got shape {X.shape}")
    return X


def forward(rb: RuleBase, X: np.ndarray, mu=None) -> Reduced:
    """Run the inference chain on a batch of rows.

    Fires every rule on the (N, F) inputs, evaluates the affine rule
    outputs, and returns ``kernels.type_reduce`` of the two: normalized
    strengths, the interval outputs and their blend.  ``mu``, when
    given, is the (mu_L, mu_U) pair of raw strengths of these rows under
    the current antecedents, and replaces the firing.
    """
    X = _as_rows(rb, X)
    mu_l, mu_u = (_fire_batch(X, rb.c1, rb.c2, rb.sigma) if mu is None
                  else mu)
    return type_reduce(mu_l, mu_u, X @ rb.w.T + rb.b, rb.q)


def chunk_rows(rb: RuleBase) -> int:
    """Rows per inference chunk: a (rows, R, F) float64 array of that
    many rows fits in ``PREDICT_CHUNK_BYTES``."""
    return max(1, PREDICT_CHUNK_BYTES // (8 * rb.n_rules * rb.n_features))


def predict_arrays(rb: RuleBase,
                   X: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Batch inference returning (y_lower, y_upper, y_pred) arrays.

    The one row-level inference API, behind ``predict``, ``evaluate``,
    validation and the sweep metrics.  Rows are independent, so
    ``forward`` runs over row chunks of ``chunk_rows`` rows.
    """
    X = _as_rows(rb, X)
    rows = chunk_rows(rb)
    out = np.empty((3, X.shape[0]))
    for lo in range(0, X.shape[0], rows):
        red = forward(rb, X[lo:lo + rows])
        out[:, lo:lo + rows] = red.y_l, red.y_u, red.y_p
    return out[0], out[1], out[2]
