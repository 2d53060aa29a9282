"""Membership bounds, firing, and type reduction."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from it2anfis import core, kernels
from it2anfis.core import (IntervalPrediction, IT2Antecedent, Mode, RuleBase,
                           forward, membership_bounds, predict_arrays,
                           predict_batch, predict_one)

from conftest import random_rulebase, ref_membership, ref_predict

antecedents = st.builds(
    IT2Antecedent,
    c1=st.floats(0.0, 1.0),
    c2=st.floats(0.0, 1.0),
    sigma=st.floats(0.05, 0.6),
).map(lambda a: IT2Antecedent(min(a.c1, a.c2), max(a.c1, a.c2), a.sigma))

inputs = st.floats(-1.0, 2.0)


class TestMembershipBounds:
    def test_collapsed_center(self):
        assert membership_bounds(IT2Antecedent(0.5, 0.5, 0.1), 0.5) == \
            (1.0, 1.0)

    def test_plateau_and_lower_at_midpoint(self):
        mu_l, mu_u = membership_bounds(IT2Antecedent(0.4, 0.6, 0.1), 0.5)
        assert mu_u == 1.0
        # the tie at the midpoint takes the c2 branch: (0.5-0.6)/0.1
        assert mu_l == pytest.approx(math.exp(-0.5), rel=1e-12)

    def test_left_of_interval(self):
        mu_l, mu_u = membership_bounds(IT2Antecedent(0.4, 0.6, 0.1), 0.3)
        assert mu_u == pytest.approx(math.exp(-0.5), rel=1e-12)
        assert mu_l == pytest.approx(math.exp(-4.5), rel=1e-12)

    @settings(max_examples=200, deadline=None)
    @given(ant=antecedents, x=inputs)
    # 0.5 z**2 = 775 for the farther mean: exp underflows mu_L to 0.0
    @example(ant=IT2Antecedent(0.0, 0.0, 0.0508), x=2.0)
    def test_lower_never_exceeds_upper(self, ant, x):
        mu_l, mu_u = membership_bounds(ant, x)
        assert 0.0 <= mu_l <= mu_u <= 1.0
        z_far = max(abs(x - ant.c1), abs(x - ant.c2)) / ant.sigma
        if 0.5 * z_far * z_far < 700.0:
            assert mu_l > 0.0

    @settings(max_examples=200, deadline=None)
    @given(ant=antecedents, x=inputs)
    def test_plateau_iff_inside_interval(self, ant, x):
        # exact 1.0 on the closed interval; strictly below it once x is
        # far enough out that exp no longer rounds to 1 (a hair outside
        # the bound the distinction drowns in float rounding)
        _, mu_u = membership_bounds(ant, x)
        margin = 1e-6 * ant.sigma
        if ant.c1 <= x <= ant.c2:
            assert mu_u == 1.0
        elif x < ant.c1 - margin or x > ant.c2 + margin:
            assert mu_u < 1.0

    @settings(max_examples=50, deadline=None)
    @given(ant=antecedents)
    def test_bounds_continuous_in_x(self, ant):
        xs = np.linspace(ant.c1 - 1.0, ant.c2 + 1.0, 2001)
        vals = np.array([membership_bounds(ant, float(x)) for x in xs])
        step = xs[1] - xs[0]
        # steepest possible slope of a unit Gaussian with spread sigma
        max_slope = math.exp(-0.5) / ant.sigma
        jumps = np.abs(np.diff(vals, axis=0)).max()
        assert jumps < 10.0 * step * max_slope

    @settings(max_examples=100, deadline=None)
    @given(ant=antecedents, x=inputs)
    def test_matches_reference(self, ant, x):
        assert membership_bounds(ant, x) == \
            ref_membership(ant.c1, ant.c2, ant.sigma, x)


class TestFire:
    def test_single_rule_normalizes_to_one(self, rng):
        rb = random_rulebase(rng, 1, 3)
        red = forward(rb, rng.random((1, 3)))
        assert red.f_l.tolist() == [[1.0]]
        assert red.f_u.tolist() == [[1.0]]

    def test_collapsed_strengths_coincide(self, rng):
        rb = random_rulebase(rng, 4, 2, mode=Mode.TYPE1_ORDER1)
        mu_l, mu_u = kernels.fire(rng.random((1, 2)), rb.c1, rb.c2, rb.sigma)
        np.testing.assert_array_equal(mu_l, mu_u)

    def test_two_rule_normalization_example(self):
        rb = RuleBase(c1=np.array([[0.4], [0.6]]),
                      c2=np.array([[0.6], [0.8]]),
                      sigma=np.full((2, 1), 0.1),
                      w=np.zeros((2, 1)), b=np.zeros(2))
        f_u = forward(rb, np.array([[0.3]])).f_u[0]
        np.testing.assert_allclose(f_u, [0.98201379, 0.01798621], atol=5e-9)
        assert f_u.sum() == pytest.approx(1.0, abs=1e-9)

    def test_uniform_fallback_far_from_rules(self, rng):
        rb = random_rulebase(rng, 5, 2)
        red = forward(rb, np.array([[80.0, -75.0]]))
        np.testing.assert_array_equal(red.f_l, np.full((1, 5), 0.2))
        np.testing.assert_array_equal(red.f_u, np.full((1, 5), 0.2))

    @settings(max_examples=100, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1))
    def test_normalization_sums_to_one(self, seed):
        rng = np.random.default_rng(seed)
        rb = random_rulebase(rng, int(rng.integers(1, 8)),
                             int(rng.integers(1, 5)))
        X = rng.uniform(-1.0, 2.0, (1, rb.n_features))
        red = forward(rb, X)
        assert red.f_l.sum() == pytest.approx(1.0, abs=1e-9)
        assert red.f_u.sum() == pytest.approx(1.0, abs=1e-9)
        mu_l, mu_u = kernels.fire(X, rb.c1, rb.c2, rb.sigma)
        assert np.all(mu_l <= mu_u + 1e-15)

    def test_arity_mismatch_rejected(self, rng):
        rb = random_rulebase(rng, 2, 3)
        with pytest.raises(ValueError, match="arity"):
            forward(rb, np.zeros((1, 2)))


class TestPredict:
    def test_midpoint_blend(self):
        p = IntervalPrediction(y_lower=100.0, y_upper=120.0, y_pred=110.0)
        assert p.interval == (100.0, 120.0)
        assert p.width == 20.0

    def test_crossed_interval_example(self):
        rb = RuleBase(c1=np.array([[1.0], [0.4]]),
                      c2=np.array([[1.6], [0.71715729]]),
                      sigma=np.full((2, 1), 0.1),
                      w=np.array([[1.0], [2.0]]), b=np.zeros(2))
        p = predict_one(rb, np.array([1.0]))
        assert p.y_lower == pytest.approx(1.5, abs=1e-9)
        assert p.y_upper == pytest.approx(1.0179862, abs=1e-6)
        # crossed bounds: the reported interval is still ordered
        assert p.interval[0] <= p.y_pred <= p.interval[1]
        assert p.interval == (p.y_upper, p.y_lower)

    def test_collapsed_width_zero(self, rng):
        rb = random_rulebase(rng, 3, 2, mode=Mode.TYPE1_ORDER1)
        p = predict_one(rb, rng.random(2))
        assert p.y_lower == p.y_upper == p.y_pred
        assert p.width == 0.0

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
            batch = predict_batch(rb, X)
            for n, pred in enumerate(batch):
                one = predict_one(rb, X[n])
                assert abs(pred.y_pred - one.y_pred) < 1e-12
                assert abs(pred.y_lower - one.y_lower) < 1e-12
                assert abs(pred.y_upper - one.y_upper) < 1e-12

    def test_batch_empty_and_duplicate_rows(self, rng):
        rb = random_rulebase(rng, 3, 2)
        assert predict_batch(rb, np.empty((0, 2))) == []
        x = rng.random(2)
        two = predict_batch(rb, np.stack([x, x]))
        assert two[0] == two[1]

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1))
    def test_matches_pure_python_reference(self, seed):
        rng = np.random.default_rng(seed)
        rb = random_rulebase(rng, int(rng.integers(1, 6)),
                             int(rng.integers(1, 4)))
        x = rng.uniform(-1.0, 2.0, rb.n_features)
        got = predict_one(rb, x)
        want = ref_predict(rb.c1.tolist(), rb.c2.tolist(),
                           rb.sigma.tolist(), rb.w.tolist(),
                           rb.b.tolist(), rb.q, x.tolist())
        assert got.y_lower == pytest.approx(want[0], rel=1e-12, abs=1e-12)
        assert got.y_upper == pytest.approx(want[1], rel=1e-12, abs=1e-12)
        assert got.y_pred == pytest.approx(want[2], rel=1e-12, abs=1e-12)

    def test_type_reduction_identity(self, rng):
        for q in (0.0, 0.3, 0.5, 1.0):
            rb = random_rulebase(rng, 3, 2, mode=Mode.TYPE1_ORDER1, q=q)
            p = predict_one(rb, rng.random(2))
            assert p.y_pred == p.y_lower == p.y_upper

    def test_q_affine_with_slope_ylower_minus_yupper(self, rng):
        rb = random_rulebase(rng, 4, 2)
        x = rng.random(2)
        preds = {}
        for q in (0.0, 0.5, 1.0):
            rb.q = q
            preds[q] = predict_one(rb, x)
        p0, p05, p1 = preds[0.0], preds[0.5], preds[1.0]
        assert p0.y_pred == p0.y_upper
        assert p1.y_pred == p1.y_lower
        slope = p1.y_lower - p1.y_upper
        assert p05.y_pred - p0.y_pred == pytest.approx(0.5 * slope,
                                                       rel=1e-12)

    def test_blend_exact_on_equal_bounds(self):
        # q*v + (1-q)*v rounds away from v = 0.1 + 0.2 at q = 0.1
        rb = RuleBase(c1=np.zeros((1, 1)), c2=np.zeros((1, 1)),
                      sigma=np.ones((1, 1)), w=np.zeros((1, 1)),
                      b=np.array([0.1 + 0.2]), q=0.1)
        red = forward(rb, np.zeros((1, 1)))
        assert red.y_l[0] == red.y_u[0] == red.y_p[0] == 0.1 + 0.2


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
