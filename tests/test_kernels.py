"""The numpy kernels: membership evaluation, products, fallback rows."""

from __future__ import annotations

import numpy as np

from it2anfis import kernels
from it2anfis.core import IT2Antecedent, membership_bounds

from conftest import random_rulebase


def _bounds(x, c1, c2, sigma):
    d_l, d_u = kernels.membership_offsets(x, c1, c2)
    return kernels.gaussian(d_l, sigma), kernels.gaussian(d_u, sigma)


class TestMembership:
    def test_agrees_with_scalar_reference(self, rng):
        n = 4000
        c = np.sort(rng.uniform(0.0, 1.0, (2, n)), axis=0)
        c1, c2 = c[0], c[1]
        sigma = rng.uniform(0.05, 0.6, n)
        x = rng.uniform(-1.0, 2.0, n)
        x[::4] = 0.5 * (c1[::4] + c2[::4])  # the midpoint tie
        mu_l, mu_u = _bounds(x, c1, c2, sigma)
        want = np.array([membership_bounds(IT2Antecedent(*p), v)
                         for *p, v in zip(c1, c2, sigma, x)])
        # np.exp and math.exp may round the same value 1 ulp apart
        np.testing.assert_array_max_ulp(mu_l, want[:, 0], maxulp=1)
        np.testing.assert_array_max_ulp(mu_u, want[:, 1], maxulp=1)

    def test_upper_is_one_on_the_plateau(self, rng):
        c1 = rng.uniform(0.0, 0.5, 500)
        c2 = c1 + rng.uniform(0.0, 0.5, 500)
        x = c1 + rng.random(500) * (c2 - c1)
        x[:2], x[-2:] = c1[:2], c2[-2:]
        _, mu_u = _bounds(x, c1, c2, 0.1)
        assert (mu_u == 1.0).all()

    def test_collapsed_antecedent_has_equal_bounds(self, rng):
        c = rng.uniform(0.0, 1.0, 500)
        x = np.concatenate([rng.uniform(-1.0, 2.0, 497), c[497:]])
        mu_l, mu_u = _bounds(x, c, c, rng.uniform(0.05, 0.6, 500))
        np.testing.assert_array_equal(mu_l, mu_u)


class TestLeaveOneOutProduct:
    def test_matches_bruteforce(self, rng):
        a = rng.random((4, 3, 5))
        got = kernels._loo_prod(a)
        want = np.empty_like(a)
        for f in range(a.shape[-1]):
            rest = np.delete(a, f, axis=-1)
            want[..., f] = rest.prod(axis=-1)
        np.testing.assert_allclose(got, want, rtol=1e-12)

    def test_zero_factor_does_not_poison_others(self):
        a = np.array([[[0.5, 0.0, 0.25]]])
        got = kernels._loo_prod(a)
        np.testing.assert_allclose(got[0, 0], [0.0, 0.125, 0.0])

    def test_single_feature(self):
        a = np.array([[[0.7]]])
        np.testing.assert_array_equal(kernels._loo_prod(a), [[[1.0]]])


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


class TestSelection:
    def test_active_backend_is_known(self):
        assert kernels.active_backend() == "numpy"
