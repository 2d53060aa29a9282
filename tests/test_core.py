"""Membership bounds, firing, and type reduction."""

from __future__ import annotations

import dataclasses
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from it2anfis import core, kernels
from it2anfis.core import (Mode, RuleBase, forward, predict_arrays,
                           strengths)

from conftest import bounds, random_rulebase, ref_membership, ref_predict


antecedents = st.tuples(
    st.floats(0.0, 1.0), st.floats(0.0, 1.0), st.floats(0.05, 0.6),
).map(lambda a: (min(a[0], a[1]), max(a[0], a[1]), a[2]))

inputs = st.floats(-1.0, 2.0)


def scalar_bounds(ant, x) -> tuple[float, float]:
    mu_l, mu_u = bounds(x, *ant)
    return float(mu_l), float(mu_u)


class TestMembershipBounds:
    def test_collapsed_center(self):
        assert scalar_bounds((0.5, 0.5, 0.1), 0.5) == (1.0, 1.0)

    def test_plateau_and_lower_at_midpoint(self):
        mu_l, mu_u = scalar_bounds((0.4, 0.6, 0.1), 0.5)
        assert mu_u == 1.0
        # the tie at the midpoint takes the c2 branch: (0.5-0.6)/0.1
        assert mu_l == pytest.approx(math.exp(-0.5), rel=1e-12)

    def test_left_of_interval(self):
        mu_l, mu_u = scalar_bounds((0.4, 0.6, 0.1), 0.3)
        assert mu_u == pytest.approx(math.exp(-0.5), rel=1e-12)
        assert mu_l == pytest.approx(math.exp(-4.5), rel=1e-12)

    @settings(max_examples=200, deadline=None)
    @given(ant=antecedents, x=inputs)
    # 0.5 z**2 = 775 for the farther mean: exp underflows mu_L to 0.0
    @example(ant=(0.0, 0.0, 0.0508), x=2.0)
    def test_lower_never_exceeds_upper(self, ant, x):
        c1, c2, sigma = ant
        mu_l, mu_u = scalar_bounds(ant, x)
        assert 0.0 <= mu_l <= mu_u <= 1.0
        z_far = max(abs(x - c1), abs(x - c2)) / sigma
        if 0.5 * z_far * z_far < 700.0:
            assert mu_l > 0.0

    @settings(max_examples=200, deadline=None)
    @given(ant=antecedents, x=inputs)
    def test_plateau_iff_inside_interval(self, ant, x):
        # exact 1.0 on the closed interval; strictly below it once x is
        # far enough out that exp no longer rounds to 1 (a hair outside
        # the bound the distinction drowns in float rounding)
        c1, c2, sigma = ant
        _, mu_u = scalar_bounds(ant, x)
        margin = 1e-6 * sigma
        if c1 <= x <= c2:
            assert mu_u == 1.0
        elif x < c1 - margin or x > c2 + margin:
            assert mu_u < 1.0

    @settings(max_examples=50, deadline=None)
    @given(ant=antecedents)
    def test_bounds_continuous_in_x(self, ant):
        c1, c2, sigma = ant
        xs = np.linspace(c1 - 1.0, c2 + 1.0, 2001)
        vals = np.stack(bounds(xs, c1, c2, sigma))
        step = xs[1] - xs[0]
        # steepest possible slope of a unit Gaussian with spread sigma
        max_slope = math.exp(-0.5) / sigma
        jumps = np.abs(np.diff(vals, axis=1)).max()
        assert jumps < 10.0 * step * max_slope

    @settings(max_examples=100, deadline=None)
    @given(ant=antecedents, x=inputs)
    def test_matches_reference(self, ant, x):
        mu_l, mu_u = scalar_bounds(ant, x)
        want_l, want_u = ref_membership(*ant, x)
        # np.exp and math.exp may round the same value 1 ulp apart
        np.testing.assert_array_max_ulp(mu_l, want_l, maxulp=1)
        np.testing.assert_array_max_ulp(mu_u, want_u, maxulp=1)


class TestFire:
    def test_single_rule_normalizes_to_one(self, rng):
        rb = random_rulebase(rng, 1, 3)
        f = strengths(rb, rng.random((1, 3))).f
        assert f[:, 0].tolist() == [[1.0]]
        assert f[:, 1].tolist() == [[1.0]]

    def test_collapsed_strengths_coincide(self, rng):
        rb = random_rulebase(rng, 4, 2, mode=Mode.TYPE1_ORDER1)
        mu_l, mu_u = kernels.fire(rng.random((1, 2)), rb.c1, rb.c2, rb.sigma)
        np.testing.assert_array_equal(mu_l, mu_u)

    def test_two_rule_normalization_example(self):
        rb = RuleBase(c1=np.array([[0.4], [0.6]]),
                      c2=np.array([[0.6], [0.8]]),
                      sigma=np.full((2, 1), 0.1),
                      w=np.zeros((2, 1)), b=np.zeros(2))
        f_u = strengths(rb, np.array([[0.3]])).f[0, 1]
        np.testing.assert_allclose(f_u, [0.98201379, 0.01798621], atol=5e-9)
        assert f_u.sum() == pytest.approx(1.0, abs=1e-9)

    def test_uniform_fallback_far_from_rules(self, rng):
        rb = random_rulebase(rng, 5, 2)
        f = strengths(rb, np.array([[80.0, -75.0]])).f
        np.testing.assert_array_equal(f[:, 0], np.full((1, 5), 0.2))
        np.testing.assert_array_equal(f[:, 1], np.full((1, 5), 0.2))

    @settings(max_examples=100, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1))
    def test_normalization_sums_to_one(self, seed):
        rng = np.random.default_rng(seed)
        rb = random_rulebase(rng, int(rng.integers(1, 8)),
                             int(rng.integers(1, 5)))
        X = rng.uniform(-1.0, 2.0, (1, rb.n_features))
        f = strengths(rb, X).f
        assert f[:, 0].sum() == pytest.approx(1.0, abs=1e-9)
        assert f[:, 1].sum() == pytest.approx(1.0, abs=1e-9)
        mu_l, mu_u = kernels.fire(X, rb.c1, rb.c2, rb.sigma)
        assert np.all(mu_l <= mu_u + 1e-15)

    def test_arity_mismatch_rejected(self, rng):
        rb = random_rulebase(rng, 2, 3)
        with pytest.raises(ValueError, match="arity"):
            strengths(rb, np.zeros((1, 2)))
        f = strengths(rb, np.zeros((1, 3))).f
        with pytest.raises(ValueError, match="arity"):
            forward(rb, np.zeros((1, 2)), f)


def predict_row(rb: RuleBase, x: np.ndarray) -> tuple[float, float, float]:
    """(y_lower, y_upper, y_pred) of one input vector."""
    return tuple(float(v[0]) for v in predict_arrays(rb, x.reshape(1, -1)))


class TestPredict:
    def test_crossed_interval_example(self):
        rb = RuleBase(c1=np.array([[1.0], [0.4]]),
                      c2=np.array([[1.6], [0.71715729]]),
                      sigma=np.full((2, 1), 0.1),
                      w=np.array([[1.0], [2.0]]), b=np.zeros(2))
        y_l, y_u, y_p = predict_row(rb, np.array([1.0]))
        assert y_l == pytest.approx(1.5, abs=1e-9)
        assert y_u == pytest.approx(1.0179862, abs=1e-6)
        # crossed bounds: the blend still lies between the endpoints
        assert y_u < y_p < y_l

    def test_collapsed_width_zero(self, rng):
        rb = random_rulebase(rng, 3, 2, mode=Mode.TYPE1_ORDER1)
        y_l, y_u, y_p = predict_row(rb, rng.random(2))
        assert y_l == y_u == y_p

    def test_batch_matches_per_row(self, rng):
        # rows far from every rule take the uniform fallback mid-batch;
        # the second case spans 2.5 chunks of predict_arrays, with
        # fallback rows on both sides of the first chunk boundary and
        # opening the third chunk
        rows = core.PREDICT_CHUNK_BYTES // (8 * 50 * 13)
        for R, F, X, far in [
                (4, 3, rng.uniform(-0.5, 1.5, (32, 3)), [3, 17]),
                (50, 13, rng.uniform(0.0, 1.0, (int(2.5 * rows), 13)),
                 [rows - 1, rows, 2 * rows])]:
            rb = random_rulebase(rng, R, F)
            X[far] = np.resize([80.0, -75.0, 60.0], F)
            assert (kernels.fire(X[far], rb.c1, rb.c2, rb.sigma)[0]
                    .sum(axis=1) < kernels.STRENGTH_FLOOR).all()
            batch = np.stack(predict_arrays(rb, X), axis=1)
            for n, pred in enumerate(batch):
                np.testing.assert_allclose(pred, predict_row(rb, X[n]),
                                           rtol=0.0, atol=1e-12)

    def test_peak_memory_grows_only_by_the_output(self, rng):
        # the chunks' temporaries are freed chunk by chunk, so from 1 to 2
        # and from 2 to 20 chunks the traced peak grows by the (3, N)
        # output alone; 4 KiB of Python objects are allowed on top, against
        # the 0.65 MB of one chunk's (rows, 2, R) strengths kept into the
        # next, or the ~3 MB that every chunk's temporaries would add
        rb = random_rulebase(rng, 50, 13)
        rows = core.chunk_rows(rb)

        def peak(n):
            X = rng.uniform(0.0, 1.0, (n, 13))
            tracemalloc.start()
            try:
                start = tracemalloc.get_traced_memory()[0]
                predict_arrays(rb, X)
                return tracemalloc.get_traced_memory()[1] - start
            finally:
                tracemalloc.stop()

        one, two, twenty = (peak(n * rows) for n in (1, 2, 20))
        assert two - one <= 3 * 8 * rows + 4096
        assert twenty - two <= 3 * 8 * 18 * rows + 4096

    def test_batch_empty_and_duplicate_rows(self, rng):
        rb = random_rulebase(rng, 3, 2)
        for out in predict_arrays(rb, np.empty((0, 2))):
            assert out.shape == (0,)
        x = rng.random(2)
        two = np.stack(predict_arrays(rb, np.stack([x, x])), axis=1)
        np.testing.assert_array_equal(two[0], two[1])

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1))
    def test_matches_pure_python_reference(self, seed):
        rng = np.random.default_rng(seed)
        rb = random_rulebase(rng, int(rng.integers(1, 6)),
                             int(rng.integers(1, 4)))
        x = rng.uniform(-1.0, 2.0, rb.n_features)
        got = predict_row(rb, x)
        want = ref_predict(rb.c1.tolist(), rb.c2.tolist(),
                           rb.sigma.tolist(), rb.w.tolist(),
                           rb.b.tolist(), rb.q, x.tolist())
        assert got == pytest.approx(want, rel=1e-12, abs=1e-12)

    def test_type_reduction_identity(self, rng):
        for q in (0.0, 0.3, 0.5, 1.0):
            rb = random_rulebase(rng, 3, 2, mode=Mode.TYPE1_ORDER1, q=q)
            y_l, y_u, y_p = predict_row(rb, rng.random(2))
            assert y_p == y_l == y_u

    def test_q_affine_with_slope_ylower_minus_yupper(self, rng):
        rb = random_rulebase(rng, 4, 2)
        x = rng.random(2)
        preds = {}
        for q in (0.0, 0.5, 1.0):
            rb.q = q
            preds[q] = predict_row(rb, x)
        p0, p05, p1 = preds[0.0], preds[0.5], preds[1.0]
        assert p0[2] == p0[1]
        assert p1[2] == p1[0]
        slope = p1[0] - p1[1]
        assert p05[2] - p0[2] == pytest.approx(0.5 * slope, rel=1e-12)

    def test_blend_exact_on_equal_bounds(self):
        # q*v + (1-q)*v rounds away from v = 0.1 + 0.2 at q = 0.1
        rb = RuleBase(c1=np.zeros((1, 1)), c2=np.zeros((1, 1)),
                      sigma=np.ones((1, 1)), w=np.zeros((1, 1)),
                      b=np.array([0.1 + 0.2]), q=0.1)
        X = np.zeros((1, 1))
        y_l, y_u, y_p = forward(rb, X, strengths(rb, X).f)
        assert y_l[0] == y_u[0] == y_p[0] == 0.1 + 0.2


class TestRuleBaseValidation:
    def test_rejects_inverted_bounds(self, rng):
        rb = random_rulebase(rng, 2, 2)
        rb.c1[0, 0] = rb.c2[0, 0] + 1.0
        with pytest.raises(ValueError, match="c1 <= c2"):
            rb.validate()

    def test_rejects_small_sigma(self, rng):
        rb = random_rulebase(rng, 2, 2)
        rb.sigma[1, 1] = 0.01
        with pytest.raises(ValueError, match="sigma"):
            rb.validate()

    def test_rejects_non_finite_or_huge_parameters(self, rng):
        for value in (math.inf, math.nan, 1.3e308):
            rb = random_rulebase(rng, 2, 2)
            rb.b[1] = value
            with pytest.raises(ValueError, match="finite"):
                rb.validate()

    def test_rejects_q_outside_unit_interval(self, rng):
        rb = random_rulebase(rng, 2, 2)
        rb.q = 1.5
        with pytest.raises(ValueError, match="q"):
            rb.validate()

    def test_rejects_type1_with_open_interval(self, rng):
        rb = random_rulebase(rng, 2, 2)
        rb.mode = Mode.TYPE1_ORDER1
        with pytest.raises(ValueError, match="type-1"):
            rb.validate()

    def test_rejects_order0_with_slopes(self, rng):
        rb = random_rulebase(rng, 2, 2, mode=Mode.TYPE1_ORDER0)
        rb.w[0, 0] = 0.5
        with pytest.raises(ValueError, match="order-0"):
            rb.validate()

    @pytest.mark.parametrize("change, message", [
        (lambda rb: {"c1": rb.c1[0]}, "c1 must be 2-d (rules x features)"),
        (lambda rb: {"b": rb.b[:, None]}, "b must be 1-d (one bias per rule)"),
        (lambda rb: {"c2": rb.c2[:, :1]}, "c2 shape mismatch: want (2, 2)"),
        (lambda rb: {"b": rb.b[:1]}, "b shape mismatch: want (2,)"),
        (lambda rb: {name: getattr(rb, name)[:0] for name in
                     ("c1", "c2", "sigma", "w", "b")},
         "need at least one rule and one feature"),
    ], ids=["1-d-c1", "2-d-b", "c2-shape", "b-length", "zero-rules"])
    def test_rejects_malformed_arrays(self, rng, change, message):
        rb = random_rulebase(rng, 2, 2)
        with pytest.raises(ValueError) as info:
            dataclasses.replace(rb, **change(rb)).validate()
        assert str(info.value) == message

    def test_predict_arrays_shape_check(self, rng):
        rb = random_rulebase(rng, 2, 3)
        with pytest.raises(ValueError, match="N, 3"):
            predict_arrays(rb, np.zeros((4, 2)))
        # longer than one chunk at the right arity: the caller's full
        # shape is named, not a chunk's
        n = core.PREDICT_CHUNK_BYTES // (8 * 2 * 3) + 5
        with pytest.raises(ValueError, match=rf"\(N, 3\), got shape "
                                             rf"\({n}, 2\)"):
            predict_arrays(rb, np.zeros((n, 2)))
