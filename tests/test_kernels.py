"""Backend parity and selection for the compiled kernels."""

from __future__ import annotations

import os
import subprocess
import sys

import numpy as np
import pytest

from it2anfis import kernels
from it2anfis.core import Mode

from conftest import random_rulebase

needs_numba = pytest.mark.skipif(not kernels.HAVE_NUMBA,
                                 reason="numba not installed")


def _random_instance(seed: int, N: int = 64, R: int = 5, F: int = 3):
    rng = np.random.default_rng(seed)
    rb = random_rulebase(rng, R, F)
    X = rng.uniform(-0.3, 1.3, (N, F))
    y = rng.normal(size=N)
    return rb, X, y


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


@needs_numba
class TestBackendParity:
    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_fire_agrees(self, seed):
        rb, X, _ = _random_instance(seed)
        nb = kernels.get_backend("numba")
        pure = kernels.get_backend("numpy")
        l1, u1 = nb["fire"](X, rb.c1, rb.c2, rb.sigma)
        l2, u2 = pure["fire"](X, rb.c1, rb.c2, rb.sigma)
        np.testing.assert_allclose(l1, l2, rtol=0, atol=1e-14)
        np.testing.assert_allclose(u1, u2, rtol=0, atol=1e-14)

    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_ant_grads_agree(self, seed):
        rb, X, y = _random_instance(seed)
        args = (X, y, rb.c1, rb.c2, rb.sigma, rb.w, rb.b, rb.q,
                kernels.STRENGTH_FLOOR)
        d1 = kernels.get_backend("numba")["ant_grads"](*args)
        d2 = kernels.get_backend("numpy")["ant_grads"](*args)
        np.testing.assert_allclose(d1[0], d2[0], rtol=0, atol=1e-13)
        np.testing.assert_allclose(d1[1], d2[1], rtol=0, atol=1e-13)

    def test_parity_in_type1_configuration(self):
        rng = np.random.default_rng(9)
        rb = random_rulebase(rng, 4, 2, mode=Mode.TYPE1_ORDER1)
        X = rng.uniform(0.0, 1.0, (32, 2))
        y = rng.normal(size=32)
        args = (X, y, rb.c1, rb.c2, rb.sigma, rb.w, rb.b, rb.q,
                kernels.STRENGTH_FLOOR)
        d1 = kernels.get_backend("numba")["ant_grads"](*args)
        d2 = kernels.get_backend("numpy")["ant_grads"](*args)
        np.testing.assert_allclose(d1[0], d2[0], rtol=0, atol=1e-13)
        np.testing.assert_allclose(d1[1], d2[1], rtol=0, atol=1e-13)


class TestFallbackRows:
    def test_far_rows_contribute_zero_gradient(self, rng):
        rb = random_rulebase(rng, 3, 2)
        near = rng.uniform(0.0, 1.0, (8, 2))
        far = np.full((4, 2), 90.0)
        y_near = rng.normal(size=8)
        y_far = rng.normal(size=4)
        base = kernels.ant_grads_numpy(near, y_near, rb.c1, rb.c2, rb.sigma,
                                       rb.w, rb.b, rb.q)
        both = kernels.ant_grads_numpy(np.vstack([near, far]),
                                       np.concatenate([y_near, y_far]),
                                       rb.c1, rb.c2, rb.sigma,
                                       rb.w, rb.b, rb.q)
        # fallback rows only rescale by the sample count
        np.testing.assert_allclose(both[0], base[0] * 8 / 12, rtol=1e-12)
        np.testing.assert_allclose(both[1], base[1] * 8 / 12, rtol=1e-12)


class TestSelection:
    def test_get_backend_rejects_unknown(self):
        with pytest.raises(ValueError, match="unknown"):
            kernels.get_backend("fortran")

    @pytest.mark.parametrize("choice,expected", [
        ("numpy", "numpy"),
        pytest.param("numba", "numba",
                     marks=pytest.mark.skipif(not kernels.HAVE_NUMBA,
                                              reason="numba missing")),
    ])
    def test_env_var_selects_backend(self, choice, expected):
        # the child imports the same package as this process, installed
        # or not
        src = os.path.dirname(os.path.dirname(kernels.__file__))
        path = os.pathsep.join(filter(None, [src,
                                             os.environ.get("PYTHONPATH")]))
        env = dict(os.environ, IT2ANFIS_BACKEND=choice, PYTHONPATH=path)
        out = subprocess.run(
            [sys.executable, "-c",
             "from it2anfis.kernels import active_backend; "
             "print(active_backend())"],
            capture_output=True, text=True, env=env, check=True)
        assert out.stdout.strip() == expected

    def test_active_backend_is_known(self):
        assert kernels.active_backend() in ("numpy", "numba")
