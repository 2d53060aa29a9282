"""Hot numeric kernels: firing, normalization, type reduction, gradient.

The inner loops of inference and training (per-sample, per-rule,
per-feature membership products and chain-rule accumulation) dominate
runtime, so they are written as whole-array numpy expressions.  The
interval membership of an antecedent is defined in one place:
``membership_offsets`` gives each input's offset from the lower and
upper bounding Gaussians' means and ``gaussian`` turns an offset into a
membership degree.  The explainer's plots apply both to single
antecedents, and the tests check them against a scalar reference and use
them as the broadcast reference of the batch kernels.

The batch kernels run rules-major.  They take each input's offsets from
the (F, N) transpose of the inputs, one block of rules at a time, so
every numpy inner loop runs over the N rows rather than the F features,
a block's temporaries stay within ``RULE_BLOCK_BYTES``, and no kernel
picks an offset with a data-dependent ``np.where``.  A rule's firing
strength is a product of Gaussians, so ``fire`` takes it in log space
from the sizes of a = x - c1 and -b = c2 - x alone, |d_l| = max(a, -b)
and |d_u| = -min(a, -b, 0), squared, scaled by h = -1 / (2 sigma**2),
summed over features and exponentiated once per (row, rule).  The scale
and the sum are one ``np.einsum("rf,srfn->srn", h, d**2)`` per rule
block, with ``optimize`` at its default of False: its loop rounds each
product h d**2 and adds the features into the output one at a time in
feature order, with the rows as its inner loop, so every row rounds the
same way in any batch, and the same way as a scaling pass followed by
``np.add.reduce`` over the features.  That rests on einsum not fusing
the multiply and the add, which holds for the x86-64 wheels; a build
that fuses them, such as aarch64 with NEON, rounds once per feature and
gives other bits, and the slice-loop reference test then fails.  (Its
zero start turns an all -0.0 sum into +0.0; exp maps both to 1.)  A lone
row is fired as a two-row batch, because numpy would drop its length-1
row axis and sum the features pairwise.  |d_l| and |d_u| equal the sizes
of ``membership_offsets``'s d_l and d_u bit for bit, except that at a
midpoint tie |d_l| may take the other of two offsets that differ by an
ulp.  ``ant_grads_from`` reuses the strengths through
d/dc prod_f g_f = (prod_f g_f) * d_f / sigma_f**2 on the active branch,
so no leave-one-out product is needed, and takes the offsets afresh, as
|m - x| from the midpoint m: that costs less than holding two (R, F, N)
arrays.  Its sums reorder the branch form's at roundoff, within a bound
the tests check against a longdouble reference.

The block loops of both kernels, and ``ant_grads_from``'s row weights,
run with numpy's ufunc buffer capped at the row count from 128 rows up
(``_row_loops``).
Their ufuncs broadcast a per-(rule, feature) constant along the rows
(``x - c1``, ``c2 - x``, ``m - x``, ``|u| - w``), and numpy's buffered
iteration takes such a loop at about 1 ns per element once its buffer
(8192 elements by default) holds more than about two rows, against
0.3-0.5 ns with at most one row: at N = 1280 a broadcast subtract over
one rule block takes 17-20 us against 5-8 us.  Elementwise results do
not depend on the buffer size, and the feature sum keeps the rows as its
inner loop, so the output is the same bit for bit.  ``normalize`` and
``reduce`` stay outside: their inner axis is the R rules, and a buffer
of N elements makes them slower.

Normalization (``normalize``: each side's strengths over their row sum,
with the uniform 1/R fallback) and type reduction (``reduce``: each
side's strength-weighted rule outputs, then the q blend) are separate
steps, because the normalized strengths change only with the
antecedents while the consequents change with every mini-batch.  The
trainer keeps the ``Strengths`` of its training split, raw and
normalized, for each antecedent state; ``ant_grads`` fires and
normalizes afresh per call.

Collapsed (type-1) bounds c1 = c2 = c make -b = c - x exactly -(x - c),
so ``fire``'s two sides are equal bit for bit.  ``fire_collapsed``
computes that one side, ``normalize`` and ``reduce`` take the sides they
are given, and a ``Strengths`` stores one side or two.  With one stored
side ``ant_grads_from`` replaces its rule-block loop by one product
over the summed row weights, which moves the gradient at roundoff,
within a bound the tests check against a longdouble reference.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import NamedTuple

import numpy as np

#: below this total raw activation the normalized strengths fall back to
#: a uniform 1/R split so the output stays finite far from every rule
STRENGTH_FLOOR = 1e-12

#: bytes of one (rules, F, N) float64 temporary per rule block of
#: ``fire`` and ``ant_grads_from``, so that a block's half-dozen
#: temporaries stay in a 2 MiB L2 cache; at F = 13 a block is one rule
#: from N = 1261 rows up (a block never holds less than one rule).
#: 2**17 to 2**20 were timed at R = 7 and 50, also with the row loops
#: capped: none was faster in both kernels
RULE_BLOCK_BYTES = 2**18


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
    """Gaussian membership exp(-(d / sigma)**2 / 2) of an offset d.

    Positive in exact arithmetic, but 0.0 once (d / sigma)**2 / 2 passes
    about 745, where exp underflows."""
    z = d / sigma
    return np.exp(-0.5 * z * z)


def _columns(X):
    """The (F, N) C-contiguous float64 transpose of the (N, F) rows X."""
    return np.ascontiguousarray(np.asarray(X, dtype=np.float64).T)


def _block_rules(R, F, N):
    """Rules per block: ``RULE_BLOCK_BYTES`` // (8 F N), from 1 to R."""
    return min(R, max(1, RULE_BLOCK_BYTES // (8 * F * max(N, 1))))


@contextmanager
def _row_loops(N):
    """Run the block below with numpy's ufunc buffer capped at N rows.

    Below 128 rows the buffer is left as it is: there the extra inner
    loop calls of a one-row buffer cost more than they save.  The cap is
    a multiple of 16, as numpy asks, and never above the caller's size,
    which comes back on the way out, exception or not.
    """
    if N < 128:
        yield
        return
    old = np.setbufsize(min(np.getbufsize(), N // 16 * 16))
    try:
        yield
    finally:
        np.setbufsize(old)


def _fire_columns(X):
    """``_columns`` of X, a lone row repeated as a two-row batch, so that
    the firing kernels' feature sum keeps the rows as its inner loop."""
    XT = _columns(X)
    return np.repeat(XT, 2, axis=1) if XT.shape[1] == 1 else XT


def fire(X, c1, c2, sigma):
    """Raw lower/upper firing strengths (mu_L, mu_U) of a batch.

    X is (N, F); c1, c2, sigma are (R, F), with c1 <= c2 as
    ``RuleBase.validate`` requires; mu_L and mu_U are C-contiguous
    (N, R).  A strength is the per-rule product over features of the
    Gaussian membership bounds, taken as exp(-0.5 * sum_f (d / sigma)**2).
    Once half the sum passes about 745 it is exactly 0, as the product
    would be: one factor that underflows alone is enough.  Each row's
    strengths depend on that row alone, bit for bit, whatever else
    shares the batch.
    """
    N = X.shape[0]
    XT = _fire_columns(X)
    (F, M), R = XT.shape, c1.shape[0]
    step = _block_rules(R, F, M)
    h = -0.5 / (sigma * sigma)
    # a = x - c1 and nb = c2 - x, which is -(x - c2) bit for bit; c1 <= c2
    # gives a >= -nb
    offsets = np.empty((2, step, F, M))
    d = np.empty((2, step, F, M))
    # per side, rules-major: the summed (d / sigma)**2 / -2
    z = np.empty((2, R, M))
    with _row_loops(M):
        for lo in range(0, R, step):
            rules = slice(lo, min(lo + step, R))
            a, nb = offsets[:, :rules.stop - lo]
            d_r = d[:, :rules.stop - lo]
            np.subtract(XT, c1[rules, :, None], out=a)
            np.subtract(c2[rules, :, None], XT, out=nb)
            # |d_l| = max(|a|, |b|) = max(a, -b): the farther mean's offset
            np.maximum(a, nb, out=d_r[0])
            # |d_u| = -min(a, -b, 0): the nearer one's, 0 on the plateau
            np.minimum(a, nb, out=d_r[1])
            np.minimum(d_r[1], 0.0, out=d_r[1])
            np.square(d_r, out=d_r)
            # scale and feature sum in one pass; the rows are the inner
            # loop, so each row adds its features one at a time in feature
            # order: a fixed rounding per row
            np.einsum("rf,srfn->srn", h[rules], d_r, out=z[:, rules])
    # exponentiate into the (2, N, R) result as it is transposed: at
    # R = 50 that is several times faster than a transposing copy
    mu = np.empty((2, N, R))
    np.exp(z[:, :, :N].transpose(0, 2, 1), out=mu)
    return mu[0], mu[1]


def fire_collapsed(X, c, sigma):
    """``fire``'s (N, R) strengths where c1 = c2 = c, computed once.

    Both of ``fire``'s offset sizes are then |x - c| and its mu_L and
    mu_U are equal bit for bit.  This takes that one side with ``fire``'s
    rule blocks, ufunc buffer, scale and feature-sum order, in 3 passes
    over a block instead of 9 and one exp instead of two.
    """
    N = X.shape[0]
    XT = _fire_columns(X)
    (F, M), R = XT.shape, c.shape[0]
    step = _block_rules(R, F, M)
    h = -0.5 / (sigma * sigma)
    d = np.empty((step, F, M))
    z = np.empty((R, M))
    with _row_loops(M):
        for lo in range(0, R, step):
            rules = slice(lo, min(lo + step, R))
            d_r = d[:rules.stop - lo]
            np.subtract(XT, c[rules, :, None], out=d_r)
            np.square(d_r, out=d_r)
            np.einsum("rf,rfn->rn", h[rules], d_r, out=z[rules])
    mu = np.empty((N, R))
    np.exp(z[:, :N].T, out=mu)
    return mu


class Strengths(NamedTuple):
    """A batch's firing strengths, raw and normalized.

    mu_l, mu_u are the (N, R) raw strengths; f is the (N, S, R)
    normalized strengths of S stored sides; inv is the (N, S) reciprocal
    raw sums, 0 on rows that took the uniform fallback.  An interval
    rule base stores both sides, S = 2.  Collapsed (type-1) bounds store
    the one side that both would equal bit for bit, S = 1, with mu_l and
    mu_u the same array; ``core.strengths`` decides which by the rule
    base's mode.  Every consumer reads the lower side as f[:, 0] and the
    upper as f[:, -1], and ``ant_grads_from`` takes one stored side as
    the signal for its collapsed-bounds gradient.
    """

    mu_l: np.ndarray
    mu_u: np.ndarray
    f: np.ndarray
    inv: np.ndarray


def normalize(*mu, floor=STRENGTH_FLOOR):
    """Normalize the raw strengths of a batch per row, side by side.

    mu is the (N, R) raw strengths of each stored side: (mu_L, mu_U), or
    the one side of collapsed bounds.  A side whose raw sum falls below
    ``floor`` uses the uniform 1/R split instead.  Returns the
    ``Strengths`` of the batch.
    """
    N, R = mu[0].shape
    s = np.empty((N, len(mu)))
    for side, m in enumerate(mu):
        np.add.reduce(m, axis=1, out=s[:, side])
    # the negated test also sends a NaN sum to the fallback
    fallback = ~(s >= floor)
    s[fallback] = 1.0
    f = np.empty((N, len(mu), R))
    for side, m in enumerate(mu):
        np.divide(m, s[:, side:side + 1], out=f[:, side])
    f[fallback] = 1.0 / R
    inv = np.divide(1.0, s, out=s)
    inv[fallback] = 0.0
    return Strengths(mu[0], mu[-1], f, inv)


def reduce(f, yr, q):
    """Reduce each side to its output and blend the two with q.

    f is the (N, S, R) normalized strengths and yr the (N, R) rule
    outputs.  Returns the (N,) outputs (y_l, y_u, y_p).  Where the two
    sides coincide the shared value is the blend, so a collapsed
    (type-1) system is bit-for-bit independent of q, whether it stores
    one side or two.
    """
    y = np.add.reduce(f * yr[:, None, :], axis=2)
    y_l, y_u = y[:, 0], y[:, -1]
    return y_l, y_u, np.where(y_l == y_u, y_l, q * y_l + (1.0 - q) * y_u)


def ant_grads(X, y, c1, c2, sigma, w, b, q, floor=STRENGTH_FLOOR):
    """Gradients of the half mean-squared error w.r.t. c1 and c2.

    Fires both sides of X, normalizes them and hands the strengths to
    ``ant_grads_from``.  Returns (d_c1, d_c2), each (R, F).
    """
    return ant_grads_from(normalize(*fire(X, c1, c2, sigma), floor=floor),
                          X, y, c1, c2, sigma, w, b, q)


def ant_grads_from(st, X, y, c1, c2, sigma, w, b, q):
    """``ant_grads`` at the ``Strengths`` st of X.

    Differentiates the full inference chain (membership bounds, product
    t-norm, normalization, interval outputs, q blend) analytically.
    Each factor of a rule's strength follows one mean, and its
    derivative w.r.t. that mean is the factor times d_f / sigma_f**2, so
    the strength's derivative is the strength times that ratio; no
    leave-one-out product is needed.  With a = x - c1 and b = x - c2,
    the lower bound follows c1 past the midpoint m = (c1 + c2) / 2 and
    c2 elsewhere (a tie takes c2); the upper bound follows c1 through
    min(a, 0) and c2 through max(b, 0), both 0 on the plateau.  At
    piecewise seams the active branch's one-sided derivative is used.
    With the row weights W_l = (y_r - y_l) q e inv_l mu_l and
    W_u = (y_r - y_u) (1 - q) e inv_u mu_u (inv is 0 on uniform-fallback
    rows, which are locally constant in c), that is

        d_c1 = sum_n (W_l a [x > m] + W_u min(a, 0)) / (sigma**2 N)
        d_c2 = sum_n (W_l b [x <= m] + W_u max(b, 0)) / (sigma**2 N).

    Returns (d_c1, d_c2), each (R, F).

    The two-sided sums come from u = m - x, the half width
    w = (c2 - c1) / 2, s = sign(u), +1 at a tie, and
    v = max(|u| - w, 0).  On both branches |d_l| = |u| + w,
    d_l = -u - w s and d_u = -s v, so the lower bound's c1 and c2 halves
    are +-(|u| + w)(1 -+ s) / 2, its upper bound's -v (1 +- s) / 2, and
    |u| s = u gives

        2 sigma**2 N d_c1 = sum W_l |u| - sum W_l u
                            + w (sum W_l - sum W_l s)
                            - sum W_u v - sum W_u s v
        2 sigma**2 N d_c2 = -(sum W_l |u| + sum W_l u
                              + w (sum W_l + sum W_l s)
                              - sum W_u v + sum W_u s v).

    A rule block takes u, |u|, s, v (two passes) and s v, six passes,
    and sums them against each side's weights in one stacked product per
    side.  Summing u and not x keeps each sum's rounding in proportion
    to the offsets.  Per element the gradient is within a small multiple
    of eps sum_n (|W_l| + |W_u|) (|x_nf| + |c1_rf| + |c2_rf|)
    / (sigma_rf**2 N) of the exact sums above.

    With one stored side (c1 = c2 = c) the four branches add up to
    x - c, so d_c1 + d_c2 = sum_n W[r, n] (x_nf - c_rf) / (sigma_rf**2 N)
    with the one side's row weights W = (y_r - y) e inv mu (q and 1 - q
    sum to 1).  It is returned as (d_c1 + d_c2, zeros), taken as the one
    (R, N) @ (N, F) product (W X - c * W 1) / (sigma**2 N).  Per element
    its rounding error is a small multiple, growing like sqrt(N) as BLAS
    sums the rows, of eps sum_n |W[r, n]| (|x_nf| + |c_rf|) / (sigma_rf**2 N).
    """
    N = X.shape[0]
    yr = X @ w.T + b
    y_l, y_u, y_p = reduce(st.f, yr, q)
    e = y_p - y

    R, F = c1.shape
    collapsed = st.f.shape[1] == 1
    # one stored side stands for both, weighted q + (1 - q) = 1
    sides = (((0, 1.0, y_l, st.mu_l),) if collapsed else
             ((0, q, y_l, st.mu_l), (1, 1.0 - q, y_u, st.mu_u)))
    weights = np.empty((R, len(sides), N))
    scale = 1.0 / (sigma * sigma * N)
    with _row_loops(N):
        # each rule's lower and upper row weights, rules-major:
        # (c e inv (y_r - y_side)) mu_side, with c = q below and 1 - q
        # above; uniform-fallback rows are locally constant in c (inv is
        # 0 there), so they drop out
        for side, c, y_side, mu in sides:
            w_s = weights[:, side]
            np.subtract(yr.T, y_side, out=w_s)
            w_s *= c * e * st.inv[:, side]
            w_s *= mu.T
    if collapsed:
        W = weights[:, 0]
        d_c = W @ X
        d_c -= c1 * np.add.reduce(W, axis=1)[:, None]
        d_c *= scale
        return d_c, np.zeros_like(d_c)

    XT = _columns(X)
    step = _block_rules(R, F, N)
    # + 0.0 makes a -0.0 midpoint +0.0, so a tie's u = m - x is +0.0 and
    # its sign sends it to c2
    m = (0.5 * (c1 + c2) + 0.0)[:, :, None]
    half = 0.5 * (c2 - c1)
    # per rule, the lower side's |u|, u and s and the upper side's v and
    # s v, each summed over the rows against its side's weights
    lower = np.empty((step, 3, F, N))
    upper = np.empty((step, 2, F, N))
    lower_sums = np.empty((R, 3 * F, 1))
    upper_sums = np.empty((R, 2 * F, 1))
    with _row_loops(N):
        for lo in range(0, R, step):
            rules = slice(lo, min(lo + step, R))
            k = rules.stop - lo
            abs_u, u, s = lower[:k].transpose(1, 0, 2, 3)
            v, sv = upper[:k].transpose(1, 0, 2, 3)
            np.subtract(m[rules], XT, out=u)
            np.abs(u, out=abs_u)
            np.copysign(1.0, u, out=s)
            np.subtract(abs_u, half[rules, :, None], out=v)
            np.maximum(v, 0.0, out=v)
            np.multiply(s, v, out=sv)
            np.matmul(lower[:k].reshape(k, 3 * F, N),
                      weights[rules, 0, :, None], out=lower_sums[rules])
            np.matmul(upper[:k].reshape(k, 2 * F, N),
                      weights[rules, 1, :, None], out=upper_sums[rules])
    # the (R, F) sums against the weights, named by their terms
    abs_u, u, s = lower_sums.reshape(R, 3, F).transpose(1, 0, 2)
    v, sv = upper_sums.reshape(R, 2, F).transpose(1, 0, 2)
    w_l = np.add.reduce(weights[:, 0], axis=1)[:, None]
    d_c1 = (abs_u - u) + half * (w_l - s) - (v + sv)
    d_c2 = (abs_u + u) + half * (w_l + s) - (v - sv)
    return d_c1 * (0.5 * scale), d_c2 * (-0.5 * scale)


def active_backend():
    """Name of the kernel implementation, recorded by run logs."""
    return "numpy"
