"""Type-1 rule bases at type-1 cost: one stored side, one-product gradient.

A type-1 rule base is an interval one with c1 = c2.  ``core.strengths``
fires it once (``kernels.fire_collapsed``) and stores that one side,
which must equal both of the two-sided kernels' sides bit for bit, and
``kernels.ant_grads_from`` takes the tied centre's gradient as one
product, which must match finite differences and an extended-precision
reference within a stated rounding bound.
"""

from __future__ import annotations

import numpy as np
import pytest

from it2anfis import kernels
from it2anfis.core import (Mode, RuleBase, chunk_rows, forward,
                           predict_arrays, strengths)
from it2anfis.dataset import TargetScaler
from it2anfis.explainer import explain_instance
from it2anfis.trainer import antecedent_gradients

from conftest import (assert_bits, half_mse, needs_longdouble,
                      random_rulebase)

TYPE1 = (Mode.TYPE1_ORDER1, Mode.TYPE1_ORDER0)


def _problem(rng, mode, R, N, F=13):
    rb = random_rulebase(rng, R, F, mode=mode, q=0.4)
    X = rng.uniform(-0.2, 1.2, (N, F))
    X[1::5, 0] += 5.0  # past exp underflow for the narrow rules only
    X[3::11] += 60.0  # uniform-fallback rows: every strength is 0
    return rb, X, rng.normal(size=N)


def _two_sided(rb, X):
    """The interval kernels' ``Strengths`` of X at the collapsed bounds."""
    return kernels.normalize(*kernels.fire(X, rb.c1, rb.c2, rb.sigma))


def _two_sided_predict(rb, X):
    """``predict_arrays`` from the two-sided kernels, in the same chunks."""
    out = np.empty((3, X.shape[0]))
    rows = chunk_rows(rb)
    for lo in range(0, X.shape[0], rows):
        part = slice(lo, lo + rows)
        out[:, part] = forward(rb, X[part], _two_sided(rb, X[part]).f)
    return out


class TestOneSidedBits:
    """One stored side gives every output of the two-sided kernels."""

    @pytest.fixture(params=[16, 8192])
    def bufsize(self, request):
        old = np.setbufsize(request.param)
        try:
            yield request.param
        finally:
            np.setbufsize(old)

    @pytest.mark.parametrize("mode", TYPE1, ids=lambda m: m.value)
    @pytest.mark.parametrize("R", [1, 5, 50])
    def test_same_bits_as_both_sides(self, rng, bufsize, mode, R):
        for N in (1, 2, 3, 64, 127, 128, 200, 360, 1280):
            rb, X, _ = _problem(rng, mode, R, N)
            mu = kernels.fire_collapsed(X, rb.c1, rb.sigma)
            assert np.getbufsize() == bufsize
            mu_l, mu_u = kernels.fire(X, rb.c1, rb.c2, rb.sigma)
            assert_bits(mu, mu_l)
            assert_bits(mu, mu_u)
            assert (mu[3::11] == 0.0).all()

            one, two = strengths(rb, X), _two_sided(rb, X)
            assert one.f.shape == (N, 1, R) and one.inv.shape == (N, 1)
            assert one.mu_l is one.mu_u
            assert_bits(one.mu_l, mu)
            for side in (0, 1):
                assert_bits(one.f[:, 0], two.f[:, side])
                assert_bits(one.inv[:, 0], two.inv[:, side])
            assert (one.inv[3::11] == 0.0).all()
            for got, want in zip(forward(rb, X, one.f),
                                 forward(rb, X, two.f)):
                assert_bits(got, want)
            assert_bits(np.stack(predict_arrays(rb, X)),
                         _two_sided_predict(rb, X))

    def test_explain_instance_anfis0(self, rng, bufsize):
        scaler = TargetScaler("y", 260.0, 40.0)
        for N in (1, 3, 128, 1280):
            rb, X, _ = _problem(rng, Mode.TYPE1_ORDER0, 50, N)
            want = scaler.inverse(_two_sided_predict(rb, X))
            assert_bits(np.stack(explain_instance(rb, X, scaler)), want)


class TestGuard:
    @pytest.mark.parametrize("mode", TYPE1, ids=lambda m: m.value)
    def test_untied_type1_bounds_refused(self, rng, mode):
        it2 = random_rulebase(rng, 4, 3)
        # built by hand and never validated: c1 < c2 under a type-1 mode
        rb = RuleBase(it2.c1, it2.c2, it2.sigma, np.zeros((4, 3)), it2.b,
                      mode=mode)
        X = rng.uniform(0.0, 1.0, (5, 3))
        for call in (strengths, predict_arrays):
            with pytest.raises(ValueError, match=mode.value):
                call(rb, X)


def test_type1_centre_gradient_oracle():
    """d_c1 + d_c2 matches a central difference of the tied centre,
    with criterion 2's tolerance, on 100 random instances."""
    step = 1e-6
    mismatches = []
    for i in range(100):
        rng = np.random.default_rng(2000 + i)
        R = int(rng.integers(1, 5))
        F = int(rng.integers(1, 4))
        N = int(rng.integers(1, 17))
        rb = random_rulebase(rng, R, F, mode=TYPE1[i % 2],
                             q=float(rng.uniform(0.2, 0.8)))
        X = rng.uniform(-0.2, 1.2, (N, F))
        y = rng.normal(size=N)
        d_c1, d_c2 = antecedent_gradients(rb, X, y, strengths(rb, X))
        for j in range(R):
            for f in range(F):
                keep = rb.c1[j, f]
                losses = []
                for c in (keep + step, keep - step):
                    rb.c1[j, f] = rb.c2[j, f] = c
                    losses.append(half_mse(rb, X, y))
                rb.c1[j, f] = rb.c2[j, f] = keep
                fd = (losses[0] - losses[1]) / (2.0 * step)
                analytic = d_c1[j, f] + d_c2[j, f]
                if abs(analytic - fd) > (1e-4 * max(abs(analytic), abs(fd))
                                         + 1e-8):
                    mismatches.append((i, j, f, analytic, fd))
    assert not mismatches


#: the bound's multiple of eps.  BLAS sums each element's N terms in
#: running sums, so the product's error grows like sqrt(N) eps: up to
#: N = 400 rows the worst over 500 seeds was 6.4 (the two-sided kernel
#: 3.1), and at 1000-2600 rows 7.9 over 100 seeds.  A wrong sign, weight
#: or scale is off by 1e15 or more
BOUND_EPS = 16.0


@needs_longdouble
def test_centre_gradient_within_rounding_bound():
    """The tied centre's gradient against sum_n W (x - c) / (sigma**2 N)
    taken in longdouble from the float64 row weights, per element, within
    BOUND_EPS * eps_64 * sum_n |W| (|x| + |c|) / (sigma**2 N): the
    one-sided product and the two-sided kernel's d_c1 + d_c2 alike."""
    eps = np.finfo(np.float64).eps
    worst = 0.0
    for seed in range(60):
        rng = np.random.default_rng(3000 + seed)
        R = int(rng.integers(1, 51))
        N = int(rng.integers(1, 401))
        F = int(rng.integers(1, 14))
        rb, X, y = _problem(rng, TYPE1[seed % 2], R, N, F)
        rb.q = float(rng.uniform(0.1, 0.9))
        st = strengths(rb, X)
        # the kernel's row weights (y_r - y) e inv mu, in its float64 order
        yr = X @ rb.w.T + rb.b
        y_1, _, y_p = kernels.reduce(st.f, yr, rb.q)
        W = yr.T - y_1
        W *= (y_p - y) * st.inv[:, 0]
        W *= st.mu_l.T
        ld = np.longdouble
        offsets = X.T.astype(ld)[None] - rb.c1.astype(ld)[:, :, None]
        scale = (rb.sigma.astype(ld) ** 2) * N
        want = np.einsum("rn,rfn->rf", W.astype(ld), offsets) / scale
        size = np.einsum("rn,rfn->rf", np.abs(W),
                         np.abs(X.T)[None] + np.abs(rb.c1)[:, :, None])
        bound = eps * size / (rb.sigma ** 2 * N)
        d_one = antecedent_gradients(rb, X, y, st)
        assert (d_one[1] == 0.0).all()
        d_two = kernels.ant_grads_from(_two_sided(rb, X), X, y, rb.c1,
                                       rb.c2, rb.sigma, rb.w, rb.b, rb.q)
        for got in (d_one[0] + d_one[1], d_two[0] + d_two[1]):
            err = np.abs(got.astype(ld) - want).astype(np.float64)
            # an element whose every term is 0 must come out exactly 0
            assert (err[bound == 0.0] == 0.0).all()
            live = bound > 0.0
            if live.any():
                worst = max(worst, float(np.max(err[live] / bound[live])))
    assert worst <= BOUND_EPS, worst
