"""Hot numeric kernels: membership firing and the antecedent gradient.

The inner loops of inference and training (per-sample, per-rule,
per-feature membership products and chain-rule accumulation) dominate
runtime, so they are written as whole-array numpy expressions.  The
interval membership of an antecedent is evaluated in one place:
``membership_offsets`` gives each input's offset from the lower and
upper bounding Gaussians' means and ``gaussian`` turns an offset into a
membership degree.  ``fire``, ``ant_grads`` and the explainer all build
on those two; ``core.membership_bounds`` is the scalar reference.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

#: below this total raw activation the normalized strengths fall back to
#: a uniform 1/R split so the output stays finite far from every rule
STRENGTH_FLOOR = 1e-12


def membership_offsets(x, c1, c2):
    """Offsets of x from the lower and upper membership bounds' means.

    Elementwise and broadcasting.  d_l is the offset from the farther of
    c1 and c2 (a tie at the midpoint takes c2); d_u is the offset from
    the nearer one and 0 on the plateau [c1, c2].  Returns (d_l, d_u):
    mu_L = gaussian(d_l, sigma) and mu_U = gaussian(d_u, sigma).
    """
    mid = 0.5 * (c1 + c2)
    d_l = x - np.where(x <= mid, c2, c1)
    d_u = x - np.clip(x, c1, c2)
    return d_l, d_u


def gaussian(d, sigma):
    """Gaussian membership exp(-(d / sigma)**2 / 2) of an offset d."""
    z = d / sigma
    return np.exp(-0.5 * z * z)


def fire(X, c1, c2, sigma):
    """Raw lower/upper firing strengths for a batch.

    X is (N, F); c1, c2, sigma are (R, F).  Returns (mu_L, mu_U), each
    (N, R): the per-rule product over features of the lower and upper
    Gaussian membership bounds.
    """
    d_l, d_u = membership_offsets(X[:, None, :], c1, c2)
    return (gaussian(d_l, sigma).prod(axis=2),
            gaussian(d_u, sigma).prod(axis=2))


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


def ant_grads(X, y, c1, c2, sigma, w, b, q, floor=STRENGTH_FLOOR):
    """Gradients of the half mean-squared error w.r.t. c1 and c2.

    Differentiates the full inference chain (membership bounds, product
    t-norm, normalization, interval outputs, q blend) analytically.  At
    piecewise seams the active branch's one-sided derivative is used.
    Returns (d_c1, d_c2), each (R, F).
    """
    N = X.shape[0]
    inv_s2 = 1.0 / (sigma * sigma)

    # d_l > 0 exactly where the lower bound follows the c1 Gaussian, and
    # d_u < 0 / d_u > 0 where the upper bound follows c1 / c2; on the
    # plateau d_u == 0, so both upper derivatives vanish there
    d_l, d_u = membership_offsets(X[:, None, :], c1, c2)
    mu_lf = gaussian(d_l, sigma)
    gl = mu_lf * d_l * inv_s2
    d_lf_c1 = np.where(d_l > 0, gl, 0.0)
    d_lf_c2 = np.where(d_l > 0, 0.0, gl)

    mu_uf = gaussian(d_u, sigma)
    gu = mu_uf * d_u * inv_s2
    d_uf_c1 = np.where(d_u < 0, gu, 0.0)
    d_uf_c2 = np.where(d_u > 0, gu, 0.0)

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


def active_backend():
    """Name of the kernel implementation, recorded by run logs."""
    return "numpy"
