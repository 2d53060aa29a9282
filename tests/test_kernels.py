"""The numpy kernels: membership evaluation, firing, fallback rows."""

from __future__ import annotations

import contextlib
from collections import namedtuple

import numpy as np
import pytest

from it2anfis import kernels

from conftest import (bits, bounds, needs_longdouble, random_rulebase,
                      ref_membership)


class TestMembership:
    def test_agrees_with_scalar_reference(self, rng):
        n = 4000
        c = np.sort(rng.uniform(0.0, 1.0, (2, n)), axis=0)
        c1, c2 = c[0], c[1]
        sigma = rng.uniform(0.05, 0.6, n)
        x = rng.uniform(-1.0, 2.0, n)
        x[::4] = 0.5 * (c1[::4] + c2[::4])  # the midpoint tie
        mu_l, mu_u = bounds(x, c1, c2, sigma)
        want = np.array([ref_membership(*p) for p in zip(c1, c2, sigma, x)])
        # np.exp and math.exp may round the same value 1 ulp apart
        np.testing.assert_array_max_ulp(mu_l, want[:, 0], maxulp=1)
        np.testing.assert_array_max_ulp(mu_u, want[:, 1], maxulp=1)

    def test_upper_is_one_on_the_plateau(self, rng):
        c1 = rng.uniform(0.0, 0.5, 500)
        c2 = c1 + rng.uniform(0.0, 0.5, 500)
        x = c1 + rng.random(500) * (c2 - c1)
        x[:2], x[-2:] = c1[:2], c2[-2:]
        _, mu_u = bounds(x, c1, c2, 0.1)
        assert (mu_u == 1.0).all()

    def test_collapsed_antecedent_has_equal_bounds(self, rng):
        c = rng.uniform(0.0, 1.0, 500)
        x = np.concatenate([rng.uniform(-1.0, 2.0, 497), c[497:]])
        mu_l, mu_u = bounds(x, c, c, rng.uniform(0.05, 0.6, 500))
        np.testing.assert_array_equal(mu_l, mu_u)


def _rule_base(rng, R, F):
    c = np.sort(rng.uniform(0.0, 1.0, (2, R, F)), axis=0)
    return c[0], c[1], rng.uniform(0.2, 0.6, (R, F))


def _reference_fire(X, c1, c2, sigma):
    """``fire`` summing the features with one slice add per feature.

    Holds every rule's offsets at once and adds feature f + 1 to the
    running sum of features 0..f, row by row; ``fire``'s one reduction
    over the feature axis must round every row exactly as this does.
    """
    XT = np.ascontiguousarray(X.T)
    a = XT - c1[:, :, None]
    nb = c2[:, :, None] - XT
    d = np.stack((np.maximum(a, nb), np.minimum(np.minimum(a, nb), 0.0)))
    np.square(d, out=d)
    d *= (-0.5 / (sigma * sigma))[:, :, None]
    z = d[:, :, 0].copy()
    for f in range(1, X.shape[1]):
        z += d[:, :, f]
    mu = np.exp(z).transpose(0, 2, 1).copy()
    return mu[0], mu[1]


class TestFire:
    @pytest.mark.parametrize("R", [1, 5, 50])
    def test_feature_sum_order_matches_slice_loop(self, rng, R):
        # a lone row is the case where numpy would sum the features
        # pairwise; the others cover row counts around its unrolled
        # loops' widths and the trainer's split sizes
        F = 13
        c1, c2, sigma = _rule_base(rng, R, F)
        X = rng.uniform(-0.2, 1.2, (1280, F))
        for n in range(0, 1280, 3):  # midpoint ties on trailing features
            X[n, n % F:] = 0.5 * (c1[n % R, n % F:] + c2[n % R, n % F:])
        for n in range(1, 1280, 11):  # on rule n % R's plateau
            X[n] = c1[n % R] + 0.5 * (c2[n % R] - c1[n % R])
        X[2::13] += 60.0  # past exp's underflow on every rule
        mu_l, mu_u = _reference_fire(X, c1, c2, sigma)
        assert (mu_u == 1.0).sum() >= 100
        assert (mu_l[2::13] == 0.0).all() and (mu_u[2::13] == 0.0).all()
        for N in (1, 2, 3, 7, 8, 9, 64, 360, 1280):
            for rows in (np.arange(N), rng.choice(1280, N, replace=False)):
                got = kernels.fire(X[rows], c1, c2, sigma)
                want = _reference_fire(X[rows], c1, c2, sigma)
                for g, w in zip(got, want):
                    np.testing.assert_array_equal(bits(g), bits(w))

    def test_is_product_of_scalar_bounds(self, rng):
        for R, F in [(1, 1), (3, 2), (6, 4), (5, 9)]:
            c1, c2, sigma = _rule_base(rng, R, F)
            X = rng.uniform(-0.2, 1.2, (4 * R, F))
            # row n ties rule n % R at its midpoint on every other feature
            for n in range(0, 4 * R, 2):
                X[n, ::2] = 0.5 * (c1[n % R, ::2] + c2[n % R, ::2])
            mu_l, mu_u = kernels.fire(X, c1, c2, sigma)
            want = np.ones((2, 4 * R, R))
            for n in range(4 * R):
                for j in range(R):
                    for f in range(F):
                        want[:, n, j] *= ref_membership(
                            c1[j, f], c2[j, f], sigma[j, f], X[n, f])
            np.testing.assert_allclose(mu_l, want[0], rtol=1e-13, atol=0)
            np.testing.assert_allclose(mu_u, want[1], rtol=1e-13, atol=0)

    def test_zero_exactly_past_exp_underflow(self, rng):
        # rows walk away from rule 0 along a fixed direction in z-space,
        # so its summed exponent spans 450..1000 while no single factor
        # comes near exp's underflow
        R, F = 4, 6
        c1, c2, sigma = _rule_base(rng, R, F)
        u = rng.uniform(0.5, 1.0, F)
        u /= np.linalg.norm(u)
        X = c2[0] + np.outer(np.linspace(20.0, 45.0, 500), sigma[0] * u)
        d_l, d_u = kernels.membership_offsets(X[:, None, :], c1, c2)
        mu_l, mu_u = kernels.fire(X, c1, c2, sigma)
        for mu, d in ((mu_l, d_l), (mu_u, d_u)):
            half_z2 = 0.5 * (d / sigma) ** 2
            assert half_z2[:, 0].max() < 700
            half = half_z2.sum(axis=2)
            assert (half[:, 0] > 746).any() and (half[:, 0] < 740).any()
            assert (mu[half > 746] == 0.0).all()
            assert (mu[half < 740] > 0.0).all()

    @pytest.mark.parametrize("R", [1, 5, 50])
    def test_rows_independent_of_batch(self, rng, R):
        # a row's strengths may not depend on the rows that share its
        # batch: the trainer caches the split's strengths and slices
        # mini-batches out of them, while prediction fires row chunks
        F = 13
        c1, c2, sigma = _rule_base(rng, R, F)
        X = rng.uniform(-0.2, 1.2, (1280, F))
        for n in range(0, 1280, 3):
            X[n, n % F:] = 0.5 * (c1[n % R, n % F:] + c2[n % R, n % F:])
        whole = kernels.fire(X, c1, c2, sigma)
        for N in (1, 2, 7, 63, 64, 360, 1280):
            rows = rng.choice(1280, N, replace=False)
            part = kernels.fire(X[rows], c1, c2, sigma)
            for got, full in zip(part, whole):
                assert got.flags.c_contiguous and full.flags.c_contiguous
                np.testing.assert_array_equal(got, full[rows])

    def test_collapsed_antecedents_fire_equal_bounds(self, rng):
        # type-1 rule bases need mu_l == mu_u bit for bit, so that their
        # output does not depend on q
        c = rng.uniform(0.0, 1.0, (7, 5))
        sigma = rng.uniform(0.05, 0.6, (7, 5))
        X = np.vstack([rng.uniform(-1.0, 2.0, (200, 5)), c])
        mu_l, mu_u = kernels.fire(X, c, c.copy(), sigma)
        np.testing.assert_array_equal(mu_l, mu_u)
        assert (np.diagonal(mu_u[200:]) == 1.0).all()

    def test_upper_strength_is_one_on_every_plateau(self, rng):
        R, F = 6, 4
        c1, c2, sigma = _rule_base(rng, R, F)
        # every rule's plateau [c1, c2] contains [lo, hi] on every feature
        lo = c1.max(axis=0)
        c2 = np.maximum(c2, lo + 0.1)
        hi = c2.min(axis=0)
        X = lo + rng.random((50, F)) * (hi - lo)
        X[:2], X[-2:] = lo, hi
        _, mu_u = kernels.fire(X, c1, c2, sigma)
        assert (mu_u == 1.0).all()


_Reduced = namedtuple("_Reduced", "f_l f_u y_l y_u y_p inv_l inv_u")


def _reference_type_reduce(mu_l, mu_u, yr, q, floor=kernels.STRENGTH_FLOOR):
    """Normalization, type reduction and the q blend in one step.

    The kernels split this into ``normalize`` and ``reduce``; together
    they must reproduce every field bit for bit.
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
    return _Reduced(f_l, f_u, y_l, y_u, y_p,
                    np.where(ok_l, 1.0 / safe_l, 0.0),
                    np.where(ok_u, 1.0 / safe_u, 0.0))


class TestNormalizeReduce:
    @pytest.mark.parametrize("R", [1, 5, 50])
    def test_matches_single_step_reference(self, rng, R):
        N = 300
        mu_u = rng.random((N, R)) ** 3
        mu_l = mu_u * rng.random((N, R))
        mu_l[0] = 0.0  # the lower side alone falls back
        mu_l[1] = mu_u[1] = 0.0  # both sides fall back
        mu_l[2] = mu_u[2] = 1e-14  # both sums below the floor
        mu_l[3] = 0.0
        mu_l[3, 0] = kernels.STRENGTH_FLOOR  # a sum exactly at the floor
        # equal sides give y_l == y_u, where the blend is y_l itself
        mu_l[100:200] = mu_u[100:200]
        yr = rng.normal(size=(N, R))
        q = 0.3
        want = _reference_type_reduce(mu_l, mu_u, yr, q)
        assert (want.inv_l[:3] == 0.0).all() and want.inv_l[3] > 0.0
        assert (want.y_l[100:200] == want.y_u[100:200]).all()
        # one rule normalizes both sides to 1.0 on every row
        assert (want.y_l[200:] != want.y_u[200:]).all() == (R > 1)
        st = kernels.normalize(mu_l, mu_u)
        y_l, y_u, y_p = kernels.reduce(st.f, yr, q)
        got = _Reduced(st.f[:, 0], st.f[:, 1], y_l, y_u, y_p,
                       st.inv[:, 0], st.inv[:, 1])
        for name in _Reduced._fields:
            np.testing.assert_array_equal(bits(getattr(got, name)),
                                          bits(getattr(want, name)),
                                          err_msg=name)
        assert st.mu_l is mu_l and st.mu_u is mu_u


#: the antecedent gradient's rounding bound, in multiples of eps_64 (see
#: ``_bounded_reference``)
ANT_BOUND_EPS = 16.0

def _bounded_reference(X, y, rb):
    """The two-sided antecedent gradient in longdouble, and its bound.

    The reference takes ``fire``'s strengths, normalizes them with
    ``_reference_type_reduce`` and forms the kernel's (R, N) row weights
    W_l = (y_r - y_l) q e inv_l mu_l and W_u = (y_r - y_u) (1 - q) e
    inv_u mu_u in the kernel's float64 order, so a correct kernel has
    the same weights bit for bit.  From them it sums, in longdouble and
    with the seam taken on the float64 values (a tie at
    m = (c1 + c2) / 2 follows c2),

        d_c1 = sum_n W_l a [x > m] + W_u min(a, 0)
        d_c2 = sum_n W_l b [x <= m] + W_u max(b, 0)

    over sigma**2 N, with the offsets a = x - c1 and b = x - c2.

    The bound, per element: every term that the kernel forms from x, c1
    and c2 (offsets, midpoint, half width, their sizes and signs) is at
    most s_n = |x_n| + |c1| + |c2| in size and within a few roundings,
    eps_64 s_n each, of its exact value; the kernel sums W_side[n] times
    such terms over the rows, combines at most six such sums and scales
    the result.  So its error is at most

        (k + g) eps_64 sum_n (|W_l[n]| + |W_u[n]|) s_n / (sigma**2 N),

    with k the elementwise roundings and g the sum's own factor, N in
    the worst case and about sqrt(N) for the blocked running sums of
    BLAS.  The check takes k + g = ``ANT_BOUND_EPS``, the type-1 centre
    gradient's multiple.  A moved seam, a wrong sign or weight, or a
    term off by a relative 1e-9 misses it by orders of magnitude.
    Returns ((d_c1, d_c2), bound), each (R, F).
    """
    N = X.shape[0]
    mu_l, mu_u = kernels.fire(X, rb.c1, rb.c2, rb.sigma)
    yr = X @ rb.w.T + rb.b
    red = _reference_type_reduce(mu_l, mu_u, yr, rb.q)
    e = red.y_p - y
    weights = []
    for c, y_side, inv, mu in ((rb.q, red.y_l, red.inv_l, mu_l),
                               (1.0 - rb.q, red.y_u, red.inv_u, mu_u)):
        w_s = yr.T - y_side
        w_s *= c * e * inv
        w_s *= mu.T
        weights.append(w_s)
    ld = np.longdouble
    a = X.T.astype(ld)[None] - rb.c1.astype(ld)[:, :, None]
    b = X.T.astype(ld)[None] - rb.c2.astype(ld)[:, :, None]
    past = X.T[None] > (0.5 * (rb.c1 + rb.c2))[:, :, None]
    w_l, w_u = (w_s.astype(ld) for w_s in weights)
    scale = rb.sigma.astype(ld) ** 2 * N
    want = ((np.einsum("rn,rfn->rf", w_l, np.where(past, a, 0))
             + np.einsum("rn,rfn->rf", w_u, np.minimum(a, 0))) / scale,
            (np.einsum("rn,rfn->rf", w_l, np.where(past, 0, b))
             + np.einsum("rn,rfn->rf", w_u, np.maximum(b, 0))) / scale)
    sizes = np.abs(X.T)[None] + (np.abs(rb.c1) + np.abs(rb.c2))[:, :, None]
    size = np.einsum("rn,rfn->rf", np.abs(weights[0]) + np.abs(weights[1]),
                     sizes)
    eps = np.finfo(np.float64).eps
    return want, ANT_BOUND_EPS * eps * size / (rb.sigma ** 2 * N)


def _bound_ratio(got, want, bound):
    """The worst |got - want| / bound over both gradients' elements.

    An element whose every term is 0 has bound 0 and must be exactly 0.
    """
    worst = 0.0
    for g, w in zip(got, want):
        err = np.abs(g.astype(np.longdouble) - w).astype(np.float64)
        assert (err[bound == 0.0] == 0.0).all()
        live = bound > 0.0
        if live.any():
            worst = max(worst, float(np.max(err[live] / bound[live])))
    return worst


def _plant_seams(rb, X):
    """Midpoint ties on every other feature of every third row, a row on
    rule 0's plateau and a uniform-fallback row, in place; a batch too
    short for a row goes without it."""
    R = rb.n_rules
    for n in range(0, X.shape[0], 3):
        X[n, ::2] = 0.5 * (rb.c1[n % R, ::2] + rb.c2[n % R, ::2])
    X[1:2] = rb.c1[0] + 0.3 * (rb.c2[0] - rb.c1[0])
    X[2:3] = 60.0


def _bound_problem(seed):
    """A random problem for the bound: (rb, X, y) with up to 50 rules,
    13 features and 1280 rows, seeded by ``seed``."""
    rng = np.random.default_rng(4000 + seed)
    R = int(rng.integers(1, 51))
    F = int(rng.integers(1, 14))
    N = int(rng.integers(1, 1281))
    rb = random_rulebase(rng, R, F, q=float(rng.uniform(0.1, 0.9)))
    X = rng.uniform(-0.2, 1.2, (N, F))
    _plant_seams(rb, X)
    X[5::13] = rb.c2[0]  # on rule 0's upper bound
    X[6::17] = rb.c1[0]  # and on its lower bound
    if R > 1 and N > 4:
        # a narrow last rule that every row but row 4 is at strength 0
        # from; row 4 reaches it at about 1e-14, below the floor, so its
        # weight must be 0 too
        rb.c1[-1], rb.c2[-1] = 9.9, 10.1
        rb.sigma[-1] = 0.05
        X[4] = 10.1 + 0.05 * np.sqrt(64.0 / F)
    return rb, X, rng.normal(size=N)


class TestAntGrads:
    @needs_longdouble
    @pytest.mark.parametrize("R, F, N", [(2, 3, 40), (5, 4, 90),
                                         (12, 13, 300), (50, 13, 1280)])
    def test_matches_reference(self, rng, R, F, N):
        rb = random_rulebase(rng, R, F, q=0.4)
        X = rng.uniform(-0.2, 1.2, (N, F))
        _plant_seams(rb, X)
        y = rng.normal(size=N)
        want, bound = _bounded_reference(X, y, rb)
        got = kernels.ant_grads(X, y, rb.c1, rb.c2, rb.sigma, rb.w, rb.b,
                                rb.q)
        assert _bound_ratio(got, want, bound) <= 1.0

    def test_one_rule_gradient_is_exactly_zero(self, rng):
        # one rule takes every row's whole normalized strength, so no
        # centre moves the prediction
        rb = random_rulebase(rng, 1, 3, q=0.4)
        X = rng.uniform(-0.2, 1.2, (40, 3))
        _plant_seams(rb, X)
        got = kernels.ant_grads(X, rng.normal(size=40), rb.c1, rb.c2,
                                rb.sigma, rb.w, rb.b, rb.q)
        np.testing.assert_array_equal(got, 0.0)

    @needs_longdouble
    def test_within_rounding_bound(self):
        """The bound over 60 random problems with ties, plateau rows,
        fallback rows and a rule that only a fallback row reaches."""
        worst = 0.0
        for seed in range(60):
            rb, X, y = _bound_problem(seed)
            want, bound = _bounded_reference(X, y, rb)
            got = kernels.ant_grads(X, y, rb.c1, rb.c2, rb.sigma, rb.w,
                                    rb.b, rb.q)
            worst = max(worst, _bound_ratio(got, want, bound))
        assert worst <= 1.0, worst


class TestRowLoops:
    """The block loops run on a capped ufunc buffer that changes no bit
    and is the caller's again after every call."""

    @pytest.fixture(params=[16, 1024, 8192, 2**16])
    def bufsize(self, request):
        old = np.setbufsize(request.param)
        try:
            yield request.param
        finally:
            np.setbufsize(old)

    @staticmethod
    def _problem(rng, R, N):
        rb = random_rulebase(rng, R, 13, q=0.4)
        X = rng.uniform(-0.2, 1.2, (N, 13))
        X[::7] = 0.5 * (rb.c1[0] + rb.c2[0])  # midpoint ties of rule 0
        X[3::11] += 60.0  # uniform-fallback rows
        return rb, X, rng.normal(size=N)

    @pytest.mark.parametrize("R", [5, 50])
    def test_same_bits_whatever_the_callers_buffer(self, rng, bufsize,
                                                   monkeypatch, R):
        for N in (1, 64, 127, 128, 200, 360, 1280):
            rb, X, y = self._problem(rng, R, N)
            params = (rb.c1, rb.c2, rb.sigma)
            # the kernels' own loops with the buffer as the caller left it
            with monkeypatch.context() as m:
                m.setattr(kernels, "_row_loops",
                          lambda N: contextlib.nullcontext())
                want_mu = kernels.fire(X, *params)
                st = kernels.normalize(*want_mu)
                want_d = kernels.ant_grads_from(st, X, y, *params, rb.w,
                                                rb.b, rb.q)
            got_mu = kernels.fire(X, *params)
            assert np.getbufsize() == bufsize
            got_d = kernels.ant_grads_from(st, X, y, *params, rb.w, rb.b,
                                           rb.q)
            assert np.getbufsize() == bufsize
            for g, w in zip(got_mu + got_d, want_mu + want_d):
                np.testing.assert_array_equal(bits(g), bits(w))

    def test_callers_buffer_restored_when_the_loop_raises(
            self, rng, bufsize, monkeypatch):
        rb, X, y = self._problem(rng, 50, 1280)
        params = (rb.c1, rb.c2, rb.sigma)
        st = kernels.normalize(*kernels.fire(X, *params))

        def boom(*args, **kwargs):
            raise FloatingPointError("in the block loop")

        def grads():
            return kernels.ant_grads_from(st, X, y, *params, rb.w, rb.b,
                                          rb.q)

        # the gradient's block loop calls np.subtract first, which its
        # row weights call too; np.abs comes next and only from there
        for name, call in (
                ("square", lambda: kernels.fire(X, *params)),
                ("einsum", lambda: kernels.fire(X, *params)),
                ("einsum", lambda: kernels.fire_collapsed(X, rb.c1,
                                                          rb.sigma)),
                ("abs", grads), ("matmul", grads)):
            with monkeypatch.context() as m:
                m.setattr(np, name, boom)
                with pytest.raises(FloatingPointError):
                    call()
            assert np.getbufsize() == bufsize, name


class TestFallbackRows:
    def test_far_rows_contribute_zero_gradient(self, rng):
        rb = random_rulebase(rng, 3, 2)
        near = rng.uniform(0.0, 1.0, (8, 2))
        far = np.full((4, 2), 90.0)
        y_near = rng.normal(size=8)
        y_far = rng.normal(size=4)
        base = kernels.ant_grads(near, y_near, rb.c1, rb.c2, rb.sigma,
                                 rb.w, rb.b, rb.q)
        both = kernels.ant_grads(np.vstack([near, far]),
                                 np.concatenate([y_near, y_far]),
                                 rb.c1, rb.c2, rb.sigma, rb.w, rb.b, rb.q)
        # fallback rows only rescale by the sample count
        np.testing.assert_allclose(both[0], base[0] * 8 / 12, rtol=1e-12)
        np.testing.assert_allclose(both[1], base[1] * 8 / 12, rtol=1e-12)

    def test_row_far_out_on_one_feature(self, rng):
        rb = random_rulebase(rng, 3, 2)
        near = rng.uniform(0.0, 1.0, (8, 2))
        X = np.vstack([near, [[0.5, 90.0]]])
        y = rng.normal(size=9)
        mu_l, mu_u = kernels.fire(X, rb.c1, rb.c2, rb.sigma)
        assert (mu_l[8] == 0.0).all() and (mu_u[8] == 0.0).all()
        args = (rb.c1, rb.c2, rb.sigma, rb.w, rb.b, rb.q)
        base = kernels.ant_grads(near, y[:8], *args)
        with np.errstate(over="raise", invalid="raise", divide="raise"):
            both = kernels.ant_grads(X, y, *args)
        assert np.isfinite(both).all()
        np.testing.assert_allclose(both[0], base[0] * 8 / 9, rtol=1e-12)
        np.testing.assert_allclose(both[1], base[1] * 8 / 9, rtol=1e-12)


class TestSelection:
    def test_active_backend_is_known(self):
        assert kernels.active_backend() == "numpy"
