"""Hot numeric kernels: membership firing and the antecedent gradient.

The inner loops of inference and training (per-sample, per-rule,
per-feature membership products and chain-rule accumulation) dominate
runtime, so they are written as whole-array numpy expressions.  The
interval membership of an antecedent is evaluated in one place:
``membership_offsets`` gives each input's offset from the lower and
upper bounding Gaussians' means and ``gaussian`` turns an offset into a
membership degree; ``core.membership_bounds`` is the scalar reference.

A rule's firing strength is a product of Gaussians, so ``memberships``
works in log space: it sums the squared z-scores over features and
takes one ``exp`` per (row, rule).  It returns the offsets with the
strengths, because ``ant_grads_from`` reuses both through
d/dc prod_f g_f = (prod_f g_f) * d_f / sigma_f**2 on the active branch,
so no leave-one-out product is needed.  The trainer keeps one
``Memberships`` of its training split per antecedent state; ``fire``
and ``ant_grads`` compute a fresh one per call.  The explainer applies
``gaussian`` to single antecedents.
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
    a = np.asarray(x - c1)
    b = np.asarray(x - c2)
    d_l = np.where(x <= 0.5 * (c1 + c2), b, a)
    # min(x - c1, 0) + max(x - c2, 0) is x - clip(x, c1, c2), bit for bit
    d_u = np.minimum(a, 0.0, out=a)
    d_u += np.maximum(b, 0.0, out=b)
    return d_l, d_u


def gaussian(d, sigma):
    """Gaussian membership exp(-(d / sigma)**2 / 2) of an offset d."""
    z = d / sigma
    return np.exp(-0.5 * z * z)


class Memberships(NamedTuple):
    """Every input's memberships in every rule, for one antecedent state.

    d_l, d_u are the (N, R, F) offsets of ``membership_offsets``; mu_l,
    mu_u the (N, R) raw lower and upper firing strengths.
    """

    d_l: np.ndarray
    d_u: np.ndarray
    mu_l: np.ndarray
    mu_u: np.ndarray


def memberships(X, c1, c2, sigma):
    """Offsets and raw firing strengths of a batch.

    X is (N, F); c1, c2, sigma are (R, F).  A strength is the per-rule
    product over features of the Gaussian membership bounds, taken as
    exp(-0.5 * sum_f (d / sigma)**2).  Once half the sum passes about
    745 it is exactly 0, as the product would be: one factor that
    underflows alone is enough.
    """
    d_l, d_u = membership_offsets(X[:, None, :], c1, c2)
    h = -0.5 / (sigma * sigma)
    return Memberships(d_l, d_u,
                       np.exp(np.einsum("nrf,nrf,rf->nr", d_l, d_l, h)),
                       np.exp(np.einsum("nrf,nrf,rf->nr", d_u, d_u, h)))


def fire(X, c1, c2, sigma):
    """Raw lower/upper firing strengths (mu_L, mu_U), each (N, R)."""
    mem = memberships(X, c1, c2, sigma)
    return mem.mu_l, mem.mu_u


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


def ant_grads(X, y, c1, c2, sigma, w, b, q, floor=STRENGTH_FLOOR):
    """Gradients of the half mean-squared error w.r.t. c1 and c2.

    Evaluates the memberships of X and hands them to ``ant_grads_from``.
    Returns (d_c1, d_c2), each (R, F).
    """
    return ant_grads_from(memberships(X, c1, c2, sigma), X, y, sigma, w, b,
                          q, floor)


def ant_grads_from(mem, X, y, sigma, w, b, q, floor=STRENGTH_FLOOR):
    """``ant_grads`` at the memberships ``mem`` of X under (c1, c2, sigma).

    Differentiates the full inference chain (membership bounds, product
    t-norm, normalization, interval outputs, q blend) analytically.
    Each factor of a rule's strength follows one mean, and its
    derivative w.r.t. that mean is the factor times d_f / sigma_f**2, so
    the strength's derivative is the strength times that ratio; no
    leave-one-out product is needed.  d_l > 0 exactly where the lower
    bound follows the c1 Gaussian, and d_u < 0 / d_u > 0 where the upper
    bound follows c1 / c2; on the plateau d_u == 0 and both vanish.  At
    piecewise seams the active branch's one-sided derivative is used.
    Returns (d_c1, d_c2), each (R, F).
    """
    N = X.shape[0]
    d_l, d_u, mu_l, mu_u = mem
    yr = X @ w.T + b
    red = type_reduce(mu_l, mu_u, yr, q, floor)
    e = red.y_p - y

    # uniform-fallback rows are locally constant in c (inv is 0 there),
    # so they drop out
    a_l = (q * e * red.inv_l)[:, None] * (yr - red.y_l[:, None]) * mu_l
    a_u = (((1.0 - q) * e * red.inv_u)[:, None] * (yr - red.y_u[:, None])
           * mu_u)

    scale = 1.0 / (sigma * sigma * N)
    d_c1 = (np.einsum("nj,njf->jf", a_l, np.maximum(d_l, 0.0))
            + np.einsum("nj,njf->jf", a_u, np.minimum(d_u, 0.0)))
    d_c2 = (np.einsum("nj,njf->jf", a_l, np.minimum(d_l, 0.0))
            + np.einsum("nj,njf->jf", a_u, np.maximum(d_u, 0.0)))
    return d_c1 * scale, d_c2 * scale


def active_backend():
    """Name of the kernel implementation, recorded by run logs."""
    return "numpy"
