"""Shared fixtures and independent reference oracles.

ref_membership and ref_predict below are a deliberately plain
pure-Python re-derivation of the membership bounds and the inference
chain (math module only, no shared code with the package), used as the
ground truth the fast paths must agree with.  ``bounds`` is the array
membership that ships, for the tests that check it, and ``half_mse`` is
the loss by the shipped predictor, which ``fd_gradient`` differentiates
centrally for the gradient oracles.
"""

from __future__ import annotations

import math

import numpy as np
import pytest

from it2anfis import kernels
from it2anfis.core import Mode, RuleBase, predict_arrays
from it2anfis.dataset import (Dataset, FeatureScaler, TargetScaler,
                              generate_synthetic, normalize_and_split,
                              SyntheticSpec)

FLOOR = 1e-12

# populated by tests/test_acceptance.py; one entry per criterion
ACCEPTANCE_RESULTS: list[tuple[int, str, str, str]] = []


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    """Print one line per acceptance criterion at the end of the run."""
    if not ACCEPTANCE_RESULTS:
        return
    terminalreporter.section("acceptance criteria")
    for num, summary, status, detail in sorted(ACCEPTANCE_RESULTS):
        line = f"{status} criterion {num}: {summary}"
        if detail:
            line += f" [{detail}]"
        terminalreporter.write_line(line)


def ref_membership(c1: float, c2: float, sigma: float,
                   x: float) -> tuple[float, float]:
    """Scalar membership bounds, written out longhand."""
    mid = (c1 + c2) / 2.0
    if x <= mid:
        z = (x - c2) / sigma
    else:
        z = (x - c1) / sigma
    lower = math.exp(-0.5 * z * z)
    if x < c1:
        z = (x - c1) / sigma
        upper = math.exp(-0.5 * z * z)
    elif x > c2:
        z = (x - c2) / sigma
        upper = math.exp(-0.5 * z * z)
    else:
        upper = 1.0
    return lower, upper


def bounds(x, c1, c2, sigma):
    """(mu_L, mu_U) by the package's array membership, broadcasting."""
    d_l, d_u = kernels.membership_offsets(x, c1, c2)
    return kernels.gaussian(d_l, sigma), kernels.gaussian(d_u, sigma)


def ref_predict(c1, c2, sigma, w, b, q, x) -> tuple[float, float, float]:
    """Single-input reference inference: (y_lower, y_upper, y_pred)."""
    R = len(c1)
    F = len(x)
    mu_l = []
    mu_u = []
    for j in range(R):
        pl = 1.0
        pu = 1.0
        for f in range(F):
            lo, up = ref_membership(c1[j][f], c2[j][f], sigma[j][f], x[f])
            pl *= lo
            pu *= up
        mu_l.append(pl)
        mu_u.append(pu)
    s_l = sum(mu_l)
    s_u = sum(mu_u)
    f_l = [m / s_l if s_l >= FLOOR else 1.0 / R for m in mu_l]
    f_u = [m / s_u if s_u >= FLOOR else 1.0 / R for m in mu_u]
    yr = [sum(w[j][f] * x[f] for f in range(F)) + b[j] for j in range(R)]
    y_l = sum(f_l[j] * yr[j] for j in range(R))
    y_u = sum(f_u[j] * yr[j] for j in range(R))
    y_p = y_l if y_l == y_u else q * y_l + (1.0 - q) * y_u
    return y_l, y_u, y_p


def ref_half_mse(rb: RuleBase, X: np.ndarray, y: np.ndarray) -> float:
    """Half mean squared error via the reference predictor."""
    total = 0.0
    for n in range(X.shape[0]):
        _, _, y_p = ref_predict(rb.c1.tolist(), rb.c2.tolist(),
                                rb.sigma.tolist(), rb.w.tolist(),
                                rb.b.tolist(), rb.q, X[n].tolist())
        total += (y_p - y[n]) ** 2
    return 0.5 * total / X.shape[0]


def half_mse(rb: RuleBase, X: np.ndarray, y: np.ndarray) -> float:
    """Half mean squared error via the package's own predictor."""
    return 0.5 * float(np.mean((predict_arrays(rb, X)[2] - y) ** 2))


def fd_gradient(rb: RuleBase, X, y, array_name: str, index,
                step: float = 1e-6) -> float:
    """Central difference of ``half_mse`` in one rule-base element."""
    arr = getattr(rb, array_name)
    keep = arr[index]
    arr[index] = keep + step
    up = half_mse(rb, X, y)
    arr[index] = keep - step
    down = half_mse(rb, X, y)
    arr[index] = keep
    return (up - down) / (2.0 * step)


#: marks a test against a longdouble reference, which needs a longdouble
#: wider than float64
needs_longdouble = pytest.mark.skipif(
    np.finfo(np.longdouble).eps >= np.finfo(np.float64).eps,
    reason="longdouble is float64 here: no wider reference")


def bits(a) -> np.ndarray:
    """The float64 values of ``a`` as their uint64 bit patterns."""
    return np.ascontiguousarray(a, dtype=np.float64).view(np.uint64)


def assert_bits(got, want) -> None:
    np.testing.assert_array_equal(bits(got), bits(want))


def random_rulebase(rng: np.random.Generator, R: int, F: int,
                    mode: Mode = Mode.IT2, q: float = 0.5) -> RuleBase:
    """Valid random rule base with comfortably separated bounds."""
    c = rng.random((R, F))
    half = 0.05 + 0.15 * rng.random((R, F))
    sigma = 0.08 + 0.4 * rng.random((R, F))
    w = rng.normal(0.0, 0.5, (R, F))
    b = rng.normal(0.0, 0.5, R)
    if mode.is_type1:
        c1 = c.copy()
        c2 = c.copy()
        if mode is Mode.TYPE1_ORDER0:
            w = np.zeros((R, F))
    else:
        c1 = c - half
        c2 = c + half
    rb = RuleBase(c1=c1, c2=c2, sigma=sigma, w=w, b=b, q=q, mode=mode)
    rb.validate()
    return rb


def seam_distance(rb: RuleBase, x: np.ndarray) -> float:
    """Distance from x to the nearest membership branch boundary."""
    mid = 0.5 * (rb.c1 + rb.c2)
    gaps = np.concatenate([np.abs(x - rb.c1).ravel(),
                           np.abs(x - rb.c2).ravel(),
                           np.abs(x - mid).ravel()])
    return float(gaps.min())


def draw_off_seam(rng: np.random.Generator, rb: RuleBase, n: int,
                  min_gap: float = 1e-3) -> np.ndarray:
    """Sample inputs staying clear of every piecewise seam."""
    rows = []
    while len(rows) < n:
        x = rng.uniform(-0.2, 1.2, size=rb.n_features)
        if seam_distance(rb, x) >= min_gap:
            rows.append(x)
    return np.asarray(rows)


@pytest.fixture()
def rng() -> np.random.Generator:
    return np.random.default_rng(20240817)


@pytest.fixture(scope="session")
def small_dataset() -> Dataset:
    """300-row synthetic dataset, 3 features, mild noise."""
    raw = generate_synthetic(SyntheticSpec(n_samples=300, n_features=3,
                                           n_latent_rules=3,
                                           noise_std=0.02, seed=11))
    return normalize_and_split(raw, seed=5)


@pytest.fixture()
def toy_scalers() -> tuple[list[FeatureScaler], TargetScaler]:
    features = [FeatureScaler(name=f"x{k + 1}", min=0.0, max=1.0)
                for k in range(2)]
    target = TargetScaler(name="energy_mwh", mean=260.0, std=40.0)
    return features, target
