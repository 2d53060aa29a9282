"""Collapsed type-1 comparators: zero width, masked slopes, IT2 limit.

A type-1 baseline is the IT2 initializer's output for the same seed
with ``InitConfig(mode=...)`` set to a type-1 mode.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np
import pytest

from it2anfis.core import Mode, RuleBase, predict_arrays
from it2anfis.dataset import Dataset, FeatureScaler, TargetScaler
from it2anfis.explainer import explain_instance
from it2anfis.initializer import InitConfig, build_rulebase
from it2anfis.trainer import TrainConfig, train

RANGES = [(0.0, 1.0), (0.0, 1.0)]
ORDER_MODES = {0: Mode.TYPE1_ORDER0, 1: Mode.TYPE1_ORDER1}


def type1(order: int, ranges=RANGES, **cfg) -> RuleBase:
    return build_rulebase(InitConfig(mode=ORDER_MODES[order], **cfg), ranges)


class TestMakeType1:
    def test_modes(self):
        assert type1(0, n_rules=3, seed=0).mode is Mode.TYPE1_ORDER0
        assert type1(1, n_rules=3, seed=0).mode is Mode.TYPE1_ORDER1

    def test_bounds_collapsed_and_order0_slopes_zero(self):
        rb0 = type1(0, n_rules=4, seed=7)
        rb1 = type1(1, n_rules=4, seed=7)
        np.testing.assert_array_equal(rb0.c1, rb0.c2)
        np.testing.assert_array_equal(rb1.c1, rb1.c2)
        np.testing.assert_array_equal(rb0.w, 0.0)
        assert np.any(rb1.w != 0.0)

    def test_same_seed_shares_centers_with_it2_midpoints(self):
        it2 = build_rulebase(InitConfig(n_rules=4, seed=7), RANGES)
        rb1 = type1(1, n_rules=4, seed=7)
        np.testing.assert_allclose(rb1.c1, 0.5 * (it2.c1 + it2.c2),
                                   atol=1e-15)


class TestZeroWidth:
    @pytest.mark.parametrize("order", [0, 1])
    def test_prediction_width_is_exactly_zero(self, order, rng):
        rb = type1(order, n_rules=3, seed=1)
        X = rng.uniform(-0.5, 1.5, (40, 2))
        y_l, y_u, y_p = predict_arrays(rb, X)
        np.testing.assert_array_equal(y_l, y_u)
        np.testing.assert_array_equal(y_p, y_l)
        # the instance level, in target units, reports the same zero width
        y_l, y_u, _ = explain_instance(rb, X, TargetScaler("y", 260.0, 40.0))
        assert np.all(np.abs(y_u - y_l) == 0.0)

    def test_q_never_enters_collapsed_inference(self, rng):
        X = rng.uniform(-0.5, 1.5, (25, 2))
        outputs = []
        for q in (0.0, 0.17, 0.5, 1.0):
            rb = type1(1, n_rules=3, seed=1)
            rb.q = q
            outputs.append(predict_arrays(rb, X)[2])
        for other in outputs[1:]:
            np.testing.assert_array_equal(outputs[0], other)


class TestNarrowIntervalLimit:
    def test_tiny_alpha_it2_approaches_type1(self, rng):
        """An IT2 model whose bounds nearly coincide predicts like the
        collapsed model built from the same seed."""
        cfg = InitConfig(n_rules=4, seed=3, alpha=1e-12)
        it2 = build_rulebase(cfg, RANGES)
        t1 = build_rulebase(replace(cfg, mode=Mode.TYPE1_ORDER1), RANGES)
        np.testing.assert_array_equal(it2.w, t1.w)
        np.testing.assert_array_equal(it2.b, t1.b)
        X = rng.uniform(0.0, 1.0, (50, 2))
        _, _, y_it2 = predict_arrays(it2, X)
        _, _, y_t1 = predict_arrays(t1, X)
        np.testing.assert_allclose(y_it2, y_t1, rtol=0.0, atol=1e-9)


def _constant_target_dataset(n: int = 40) -> Dataset:
    rng = np.random.default_rng(0)
    X = rng.random((n, 2))
    y = np.zeros(n)
    idx = np.arange(n)
    scalers = [FeatureScaler(name="x1", min=0.0, max=1.0),
               FeatureScaler(name="x2", min=0.0, max=1.0)]
    target = TargetScaler(name="energy_mwh", mean=5.0, std=1.0)
    return Dataset(X=X, y=y, feature_scalers=scalers, target_scaler=target,
                   train_idx=idx[:26], val_idx=idx[26:33], test_idx=idx[33:])


class TestTrainingBehavior:
    def test_order0_slopes_stay_zero_through_training(self):
        data = _constant_target_dataset()
        rb = type1(0, n_rules=3, seed=2)
        cfg = TrainConfig(max_epochs=20, patience=50, seed=2)
        best, _ = train(rb, data, cfg)
        np.testing.assert_array_equal(best.w, 0.0)
        np.testing.assert_array_equal(best.c1, best.c2)

    def test_order0_learns_constant_target(self):
        # standardized target identically zero: biases must shrink
        # toward zero and predictions follow
        data = _constant_target_dataset()
        rb = type1(0, n_rules=2, seed=2)
        cfg = TrainConfig(max_epochs=300, patience=300, seed=2,
                          lambda_l1=0.0, lambda_l2=0.0)
        best, state = train(rb, data, cfg)
        Xtr, ytr = data.subset(data.train_idx)
        _, _, y_pred = predict_arrays(best, Xtr)
        assert float(np.mean(y_pred ** 2)) < 1e-6
        assert state.best_val_mse < 1e-6

    def test_order1_beats_order0_on_sloped_target(self, small_dataset):
        results = {}
        for order in (0, 1):
            rb = type1(order, [(0.0, 1.0)] * 3, n_rules=5, seed=4)
            cfg = TrainConfig(max_epochs=60, patience=60, seed=4)
            _, state = train(rb, data=small_dataset, cfg=cfg)
            results[order] = state.best_val_mse
        assert results[1] < results[0]
