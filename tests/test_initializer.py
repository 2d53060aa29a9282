"""LHS center placement and rule-base construction."""

from __future__ import annotations

import numpy as np
import pytest

from it2anfis.core import Mode
from it2anfis.initializer import (InitConfig, build_rulebase, lhs_centers,
                                  partition_width, ranges_from_training)


def _stratum_of(center: float, lo: float, hi: float, R: int) -> int:
    return int((center - lo) / ((hi - lo) / R))


class TestLhsCenters:
    @pytest.mark.parametrize("R", [5, 7, 10])
    def test_each_stratum_hit_exactly_once(self, R):
        ranges = [(0.0, 1.0)] * 13
        centers = lhs_centers(ranges, R, seed=3)
        assert centers.shape == (R, 13)
        for f, (lo, hi) in enumerate(ranges):
            strata = sorted(_stratum_of(c, lo, hi, R)
                            for c in centers[:, f])
            assert strata == list(range(R))

    def test_four_strata_example(self):
        centers = lhs_centers([(0.0, 8.0)], 4, seed=0)
        strata = sorted(_stratum_of(c, 0.0, 8.0, 4) for c in centers[:, 0])
        assert strata == [0, 1, 2, 3]

    def test_single_rule_stays_in_range(self):
        centers = lhs_centers([(0.0, 1.0)], 1, seed=2)
        assert 0.0 <= centers[0, 0] < 1.0

    def test_uneven_ranges(self):
        ranges = [(-3.0, 5.0), (10.0, 11.0)]
        centers = lhs_centers(ranges, 6, seed=9)
        for f, (lo, hi) in enumerate(ranges):
            strata = sorted(_stratum_of(c, lo, hi, 6)
                            for c in centers[:, f])
            assert strata == list(range(6))

    def test_degenerate_range_rejected(self):
        with pytest.raises(ValueError, match="degenerate"):
            lhs_centers([(0.5, 0.5)], 3, seed=0)

    def test_permutation_differs_across_features(self):
        # with 8 rules and 6 features, identical permutations everywhere
        # would mean the permuting rng had no effect
        centers = lhs_centers([(0.0, 1.0)] * 6, 8, seed=4)
        orders = {tuple(_stratum_of(c, 0.0, 1.0, 8) for c in centers[:, f])
                  for f in range(6)}
        assert len(orders) > 1


class TestPartitionWidth:
    def test_many_features_example(self):
        assert partition_width((0.0, 1.0), 7, 13) == 0.5

    def test_single_rule(self):
        assert partition_width((0.0, 1.0), 1, 5) == 1.0

    def test_exact_integer_root_boundary(self):
        # 1024 = 2**10 exactly; a float root would overshoot the ceiling
        assert partition_width((0.0, 1.0), 1024, 10) == 0.5
        assert partition_width((0.0, 1.0), 1025, 10) == pytest.approx(1 / 3)

    def test_single_feature(self):
        assert partition_width((0.0, 1.0), 4, 1) == 0.25


class TestBuildRulebase:
    def test_interval_and_sigma_sizing(self):
        cfg = InitConfig(n_rules=7, alpha=0.2, seed=0)
        rb = build_rulebase(cfg, [(0.0, 1.0)] * 13)
        np.testing.assert_allclose(rb.c2 - rb.c1, 0.1, rtol=1e-12)
        np.testing.assert_array_equal(rb.sigma, np.full((7, 13), 0.25))
        assert rb.q == 0.5
        assert rb.mode is Mode.IT2

    def test_sigma_floor_applies(self):
        cfg = InitConfig(n_rules=9, alpha=0.5, seed=0)
        rb = build_rulebase(cfg, [(0.0, 0.05)])
        # partition width 0.05/9 makes 0.5*w_f tiny, the floor wins
        np.testing.assert_array_equal(rb.sigma, np.full((9, 1), 0.05))

    def test_type1_modes_collapse(self):
        for mode in (Mode.TYPE1_ORDER0, Mode.TYPE1_ORDER1):
            cfg = InitConfig(n_rules=4, seed=1, mode=mode)
            rb = build_rulebase(cfg, [(0.0, 1.0)] * 2)
            np.testing.assert_array_equal(rb.c1, rb.c2)
            assert rb.mode is mode
        rb0 = build_rulebase(InitConfig(n_rules=4, seed=1,
                                        mode=Mode.TYPE1_ORDER0),
                             [(0.0, 1.0)] * 2)
        np.testing.assert_array_equal(rb0.w, 0.0)

    def test_deterministic(self):
        cfg = InitConfig(n_rules=5, seed=42)
        a = build_rulebase(cfg, [(0.0, 1.0)] * 3)
        b = build_rulebase(cfg, [(0.0, 1.0)] * 3)
        np.testing.assert_array_equal(a.c1, b.c1)
        np.testing.assert_array_equal(a.w, b.w)
        np.testing.assert_array_equal(a.b, b.b)

    def test_consequent_scale(self):
        cfg = InitConfig(n_rules=20, seed=7)
        rb = build_rulebase(cfg, [(0.0, 1.0)] * 12)
        spread = rb.w.std()
        assert 0.005 <= spread <= 0.02

    def test_validates_config(self):
        with pytest.raises(ValueError, match="alpha"):
            build_rulebase(InitConfig(n_rules=3, alpha=1.5), [(0.0, 1.0)])
        with pytest.raises(ValueError, match="n_rules"):
            build_rulebase(InitConfig(n_rules=0), [(0.0, 1.0)])

    def test_initial_rulebase_satisfies_invariants(self):
        for seed in range(5):
            rb = build_rulebase(InitConfig(n_rules=6, seed=seed),
                                [(0.0, 1.0)] * 4)
            rb.validate()
            assert np.all(rb.c2 - rb.c1 >= 0.05)


class TestRangesFromTraining:
    def test_uses_only_given_rows(self):
        X = np.array([[0.0, 5.0], [1.0, 6.0], [99.0, -99.0]])
        ranges = ranges_from_training(X, np.array([0, 1]))
        assert ranges == [(0.0, 1.0), (5.0, 6.0)]
