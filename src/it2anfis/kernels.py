"""Hot numeric kernels with two interchangeable backends.

The inner loops of inference and training (per-sample, per-rule,
per-feature membership products and chain-rule accumulation) dominate
runtime, so they are compiled with numba when available.  A pure-numpy
implementation of every kernel is kept as a fallback and as a reference
for parity tests.

Backend selection is controlled by the ``IT2ANFIS_BACKEND`` environment
variable, read once at import time:

* ``auto`` (default) - numba if it imports, numpy otherwise
* ``numba``          - require numba, fail loudly if missing
* ``numpy``          - force the pure-numpy path

``benchmarks/bench_kernels.py`` times both backends side by side.
"""

from __future__ import annotations

import os
from typing import NamedTuple

import numpy as np

ENV_VAR = "IT2ANFIS_BACKEND"

#: below this total raw activation the normalized strengths fall back to
#: a uniform 1/R split so the output stays finite far from every rule
STRENGTH_FLOOR = 1e-12


# ---------------------------------------------------------------------------
# numpy backend
# ---------------------------------------------------------------------------

def fire_numpy(X, c1, c2, sigma):
    """Raw lower/upper firing strengths for a batch.

    X is (N, F); c1, c2, sigma are (R, F).  Returns (mu_L, mu_U), each
    (N, R): the per-rule product over features of the lower and upper
    Gaussian membership bounds.
    """
    Xe = X[:, None, :]
    mid = 0.5 * (c1 + c2)
    zl = np.where(Xe <= mid, (Xe - c2) / sigma, (Xe - c1) / sigma)
    mu_lf = np.exp(-0.5 * zl * zl)
    zu = np.where(Xe < c1, (Xe - c1) / sigma,
                  np.where(Xe > c2, (Xe - c2) / sigma, 0.0))
    mu_uf = np.exp(-0.5 * zu * zu)
    return mu_lf.prod(axis=2), mu_uf.prod(axis=2)


class Reduced(NamedTuple):
    """One batch through normalization, type reduction and the q blend.

    f_l, f_u are the (N, R) normalized strengths; y_l, y_u, y_p the (N,)
    lower, upper and blended outputs; inv_l, inv_u the reciprocal raw
    strength sums, 0 on rows that took the uniform fallback.
    """

    f_l: np.ndarray
    f_u: np.ndarray
    y_l: np.ndarray
    y_u: np.ndarray
    y_p: np.ndarray
    inv_l: np.ndarray
    inv_u: np.ndarray


def type_reduce(mu_l, mu_u, yr, q, floor=STRENGTH_FLOOR):
    """Normalize raw strengths, reduce each side, and blend with q.

    mu_l, mu_u are (N, R) raw strengths and yr the (N, R) rule outputs.
    A row whose raw sum falls below ``floor`` uses the uniform 1/R split
    instead.  Where the two outputs coincide the shared value is the
    blend, so a collapsed (type-1) system is bit-for-bit independent of q.
    """
    R = mu_l.shape[1]
    s_l = mu_l.sum(axis=1)
    s_u = mu_u.sum(axis=1)
    ok_l = s_l >= floor
    ok_u = s_u >= floor
    safe_l = np.where(ok_l, s_l, 1.0)
    safe_u = np.where(ok_u, s_u, 1.0)
    f_l = np.where(ok_l[:, None], mu_l / safe_l[:, None], 1.0 / R)
    f_u = np.where(ok_u[:, None], mu_u / safe_u[:, None], 1.0 / R)
    y_l = (f_l * yr).sum(axis=1)
    y_u = (f_u * yr).sum(axis=1)
    y_p = np.where(y_l == y_u, y_l, q * y_l + (1.0 - q) * y_u)
    return Reduced(f_l, f_u, y_l, y_u, y_p,
                   np.where(ok_l, 1.0 / safe_l, 0.0),
                   np.where(ok_u, 1.0 / safe_u, 0.0))


def _loo_prod(a):
    """Leave-one-out product along the last axis, underflow-safe.

    out[..., f] = prod of a[..., f'] over f' != f, computed from prefix
    and suffix cumulative products so a zero factor never poisons the
    other positions.
    """
    pre = np.ones_like(a)
    suf = np.ones_like(a)
    np.cumprod(a[..., :-1], axis=-1, out=pre[..., 1:])
    rev = np.cumprod(a[..., ::-1], axis=-1)[..., ::-1]
    suf[..., :-1] = rev[..., 1:]
    return pre * suf


def ant_grads_numpy(X, y, c1, c2, sigma, w, b, q, floor=STRENGTH_FLOOR):
    """Gradients of the half mean-squared error w.r.t. c1 and c2.

    Differentiates the full inference chain (membership bounds, product
    t-norm, normalization, interval outputs, q blend) analytically.  At
    piecewise seams the active branch's one-sided derivative is used.
    Returns (d_c1, d_c2), each (R, F).
    """
    N = X.shape[0]
    Xe = X[:, None, :]

    inv_s2 = 1.0 / (sigma * sigma)
    mid = 0.5 * (c1 + c2)

    low_branch = Xe <= mid
    dl = Xe - np.where(low_branch, c2, c1)
    mu_lf = np.exp(-0.5 * (dl / sigma) ** 2)
    gl = mu_lf * dl * inv_s2
    d_lf_c1 = np.where(low_branch, 0.0, gl)
    d_lf_c2 = np.where(low_branch, gl, 0.0)

    below = Xe < c1
    above = Xe > c2
    du = np.where(below, Xe - c1, np.where(above, Xe - c2, 0.0))
    mu_uf = np.exp(-0.5 * (du / sigma) ** 2)
    gu = mu_uf * du * inv_s2
    d_uf_c1 = np.where(below, gu, 0.0)
    d_uf_c2 = np.where(above, gu, 0.0)
    # inside the plateau both derivatives are 0 (du == 0 there and the
    # masks exclude it)

    loo_l = _loo_prod(mu_lf)
    loo_u = _loo_prod(mu_uf)
    yr = X @ w.T + b
    red = type_reduce(mu_lf.prod(axis=2), mu_uf.prod(axis=2), yr, q, floor)
    e = red.y_p - y

    # uniform-fallback rows are locally constant in c (inv is 0 there),
    # so they drop out
    w_l = (q * e * red.inv_l)[:, None] * (yr - red.y_l[:, None])
    w_u = ((1.0 - q) * e * red.inv_u)[:, None] * (yr - red.y_u[:, None])

    d_c1 = (np.einsum("nj,njf->jf", w_l, loo_l * d_lf_c1)
            + np.einsum("nj,njf->jf", w_u, loo_u * d_uf_c1)) / N
    d_c2 = (np.einsum("nj,njf->jf", w_l, loo_l * d_lf_c2)
            + np.einsum("nj,njf->jf", w_u, loo_u * d_uf_c2)) / N
    return d_c1, d_c2


# ---------------------------------------------------------------------------
# numba backend
# ---------------------------------------------------------------------------

try:
    from numba import njit

    HAVE_NUMBA = True
except ImportError:  # pragma: no cover - exercised only without numba
    HAVE_NUMBA = False

if HAVE_NUMBA:

    @njit(cache=True)
    def fire_numba(X, c1, c2, sigma):
        N, F = X.shape
        R = c1.shape[0]
        mu_l = np.empty((N, R))
        mu_u = np.empty((N, R))
        for n in range(N):
            for j in range(R):
                pl = 1.0
                pu = 1.0
                for f in range(F):
                    x = X[n, f]
                    lo = c1[j, f]
                    hi = c2[j, f]
                    s = sigma[j, f]
                    if x <= 0.5 * (lo + hi):
                        z = (x - hi) / s
                    else:
                        z = (x - lo) / s
                    pl *= np.exp(-0.5 * z * z)
                    if x < lo:
                        z = (x - lo) / s
                        pu *= np.exp(-0.5 * z * z)
                    elif x > hi:
                        z = (x - hi) / s
                        pu *= np.exp(-0.5 * z * z)
                mu_l[n, j] = pl
                mu_u[n, j] = pu
        return mu_l, mu_u

    @njit(cache=True)
    def ant_grads_numba(X, y, c1, c2, sigma, w, b, q, floor):
        N, F = X.shape
        R = c1.shape[0]
        d_c1 = np.zeros((R, F))
        d_c2 = np.zeros((R, F))

        mu_lf = np.empty((R, F))
        mu_uf = np.empty((R, F))
        d_lf_c1 = np.empty((R, F))
        d_lf_c2 = np.empty((R, F))
        d_uf_c1 = np.empty((R, F))
        d_uf_c2 = np.empty((R, F))
        loo_l = np.empty((R, F))
        loo_u = np.empty((R, F))
        mu_l = np.empty(R)
        mu_u = np.empty(R)
        yr = np.empty(R)
        pre = np.empty(F)

        for n in range(N):
            for j in range(R):
                acc = b[j]
                for f in range(F):
                    x = X[n, f]
                    lo = c1[j, f]
                    hi = c2[j, f]
                    s = sigma[j, f]
                    inv_s2 = 1.0 / (s * s)
                    if x <= 0.5 * (lo + hi):
                        d = x - hi
                        m = np.exp(-0.5 * (d / s) * (d / s))
                        mu_lf[j, f] = m
                        d_lf_c1[j, f] = 0.0
                        d_lf_c2[j, f] = m * d * inv_s2
                    else:
                        d = x - lo
                        m = np.exp(-0.5 * (d / s) * (d / s))
                        mu_lf[j, f] = m
                        d_lf_c1[j, f] = m * d * inv_s2
                        d_lf_c2[j, f] = 0.0
                    if x < lo:
                        d = x - lo
                        m = np.exp(-0.5 * (d / s) * (d / s))
                        mu_uf[j, f] = m
                        d_uf_c1[j, f] = m * d * inv_s2
                        d_uf_c2[j, f] = 0.0
                    elif x > hi:
                        d = x - hi
                        m = np.exp(-0.5 * (d / s) * (d / s))
                        mu_uf[j, f] = m
                        d_uf_c1[j, f] = 0.0
                        d_uf_c2[j, f] = m * d * inv_s2
                    else:
                        mu_uf[j, f] = 1.0
                        d_uf_c1[j, f] = 0.0
                        d_uf_c2[j, f] = 0.0
                    acc += w[j, f] * x
                yr[j] = acc

            s_l = 0.0
            s_u = 0.0
            for j in range(R):
                p = 1.0
                for f in range(F):
                    pre[f] = p
                    p *= mu_lf[j, f]
                mu_l[j] = p
                p = 1.0
                for f in range(F - 1, -1, -1):
                    loo_l[j, f] = pre[f] * p
                    p *= mu_lf[j, f]
                p = 1.0
                for f in range(F):
                    pre[f] = p
                    p *= mu_uf[j, f]
                mu_u[j] = p
                p = 1.0
                for f in range(F - 1, -1, -1):
                    loo_u[j, f] = pre[f] * p
                    p *= mu_uf[j, f]
                s_l += mu_l[j]
                s_u += mu_u[j]

            ok_l = s_l >= floor
            ok_u = s_u >= floor
            y_l = 0.0
            y_u = 0.0
            for j in range(R):
                fl = mu_l[j] / s_l if ok_l else 1.0 / R
                fu = mu_u[j] / s_u if ok_u else 1.0 / R
                y_l += fl * yr[j]
                y_u += fu * yr[j]
            if y_l == y_u:
                y_p = y_l
            else:
                y_p = q * y_l + (1.0 - q) * y_u
            e = y_p - y[n]

            if ok_l:
                cl = q * e / s_l
                for j in range(R):
                    g = cl * (yr[j] - y_l)
                    for f in range(F):
                        d_c1[j, f] += g * loo_l[j, f] * d_lf_c1[j, f]
                        d_c2[j, f] += g * loo_l[j, f] * d_lf_c2[j, f]
            if ok_u:
                cu = (1.0 - q) * e / s_u
                for j in range(R):
                    g = cu * (yr[j] - y_u)
                    for f in range(F):
                        d_c1[j, f] += g * loo_u[j, f] * d_uf_c1[j, f]
                        d_c2[j, f] += g * loo_u[j, f] * d_uf_c2[j, f]

        for j in range(R):
            for f in range(F):
                d_c1[j, f] /= N
                d_c2[j, f] /= N
        return d_c1, d_c2


# ---------------------------------------------------------------------------
# selection
# ---------------------------------------------------------------------------

_BACKENDS = {"numpy": {"name": "numpy", "fire": fire_numpy, "ant_grads": ant_grads_numpy}}
if HAVE_NUMBA:
    _BACKENDS["numba"] = {"name": "numba", "fire": fire_numba, "ant_grads": ant_grads_numba}


def get_backend(name):
    """Return the kernel table for an explicit backend name."""
    if name not in _BACKENDS:
        raise ValueError(f"unknown or unavailable kernel backend: {name!r}")
    return _BACKENDS[name]


def _select():
    choice = os.environ.get(ENV_VAR, "auto").strip().lower()
    if choice in ("", "auto"):
        return _BACKENDS["numba"] if HAVE_NUMBA else _BACKENDS["numpy"]
    return get_backend(choice)


_ACTIVE = _select()

fire = _ACTIVE["fire"]
ant_grads = _ACTIVE["ant_grads"]


def active_backend():
    """Name of the backend chosen at import time."""
    return _ACTIVE["name"]
