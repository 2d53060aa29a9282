"""Gradient correctness, update rules, schedules, and the epoch loop."""

from __future__ import annotations

import dataclasses
import math

import numpy as np
import pytest

from it2anfis import core, kernels
from it2anfis.core import Mode, RuleBase, predict_arrays, strengths
from it2anfis.dataset import (SyntheticSpec, generate_synthetic,
                              normalize_and_split)
from it2anfis.initializer import InitConfig, build_rulebase
from it2anfis.trainer import (ETA_ANT_BOUNDS, ETA_CONS_BOUNDS, TrainConfig,
                              TrainState, TrainingDiverged, _check_finite,
                              adapt_learning_rates, antecedent_gradients,
                              apply_antecedent_update,
                              apply_consequent_update, consequent_gradients,
                              enforce_constraints, train)

from conftest import (draw_off_seam, fd_gradient, half_mse, random_rulebase,
                      ref_half_mse)


class TestConsequentGradients:
    def test_zero_error_gives_zero_gradient(self, rng):
        rb = random_rulebase(rng, 3, 2)
        X = rng.random((6, 2))
        _, _, y = predict_arrays(rb, X)
        d_w, d_b = consequent_gradients(rb, X, y, strengths(rb, X).f)
        np.testing.assert_array_equal(d_w, 0.0)
        np.testing.assert_array_equal(d_b, 0.0)

    def test_single_rule_fires_fully(self, rng):
        rb = random_rulebase(rng, 1, 2)
        x = rng.random(2)
        X = x.reshape(1, -1)
        _, _, y_pred = predict_arrays(rb, X)
        y = y_pred - 0.3
        d_w, d_b = consequent_gradients(rb, X, y, strengths(rb, X).f)
        assert d_b[0] == pytest.approx(0.3, rel=1e-12)
        np.testing.assert_allclose(d_w[0], 0.3 * x, rtol=1e-12)

    @pytest.mark.parametrize("seed", range(6))
    def test_matches_finite_differences(self, seed):
        rng = np.random.default_rng(seed)
        rb = random_rulebase(rng, 3, 2, q=float(rng.uniform(0.2, 0.8)))
        X = rng.uniform(-0.2, 1.2, (4, 2))
        y = rng.normal(size=4)
        d_w, d_b = consequent_gradients(rb, X, y, strengths(rb, X).f)
        for j in range(3):
            fd_b = fd_gradient(rb, X, y, "b", j)
            assert d_b[j] == pytest.approx(fd_b, rel=1e-6, abs=1e-9)
            for f in range(2):
                fd_w = fd_gradient(rb, X, y, "w", (j, f))
                assert d_w[j, f] == pytest.approx(fd_w, rel=1e-6, abs=1e-9)

    def test_loss_reference_agrees(self, rng):
        rb = random_rulebase(rng, 2, 2)
        X = rng.random((5, 2))
        y = rng.normal(size=5)
        assert half_mse(rb, X, y) == \
            pytest.approx(ref_half_mse(rb, X, y), rel=1e-12)


class TestApplyConsequentUpdate:
    def test_zero_weight_zero_gradient_stays_put(self, rng):
        rb = random_rulebase(rng, 2, 2)
        rb.w[:] = 0.0
        rb.b[:] = 0.0
        apply_consequent_update(rb, np.zeros((2, 2)), np.zeros(2),
                                eta_cons=0.01, lambda_l1=0.05,
                                lambda_l2=0.001)
        np.testing.assert_array_equal(rb.w, 0.0)
        np.testing.assert_array_equal(rb.b, 0.0)

    def test_regularizer_only_step(self, rng):
        rb = random_rulebase(rng, 1, 1)
        rb.w[0, 0] = 1.0
        apply_consequent_update(rb, np.zeros((1, 1)), np.zeros(1),
                                eta_cons=0.01, lambda_l1=0.05,
                                lambda_l2=0.001)
        assert rb.w[0, 0] == pytest.approx(0.99949, abs=1e-12)

    def test_matches_one_expression_step(self, rng):
        # the step runs in place but must round as the written-out rule
        rb = random_rulebase(rng, 5, 3)
        rb.w[0] = 0.0
        d_w, d_b = rng.normal(size=(5, 3)), rng.normal(size=5)
        eta, l1, l2 = 0.01, 0.05, 0.001
        want_w = rb.w - eta * (d_w + l2 * rb.w + l1 * np.sign(rb.w))
        want_b = rb.b - eta * (d_b + l2 * rb.b + l1 * np.sign(rb.b))
        grads = d_w.copy(), d_b.copy()
        apply_consequent_update(rb, d_w, d_b, eta, l1, l2)
        np.testing.assert_array_equal(rb.w.view(np.uint64),
                                      want_w.view(np.uint64))
        np.testing.assert_array_equal(rb.b.view(np.uint64),
                                      want_b.view(np.uint64))
        np.testing.assert_array_equal(d_w, grads[0])
        np.testing.assert_array_equal(d_b, grads[1])

    def test_order0_slopes_stay_masked(self, rng):
        rb = random_rulebase(rng, 2, 3, mode=Mode.TYPE1_ORDER0)
        apply_consequent_update(rb, np.full((2, 3), 0.5), np.zeros(2),
                                eta_cons=0.01, lambda_l1=0.05,
                                lambda_l2=0.001)
        np.testing.assert_array_equal(rb.w, 0.0)

    def test_l1_shrinks_fitted_weights(self, rng):
        rb = random_rulebase(rng, 2, 2)
        X = rng.random((8, 2))
        _, _, y = predict_arrays(rb, X)
        magnitudes = [np.abs(rb.w).sum()]
        for _ in range(5):
            d_w, d_b = consequent_gradients(rb, X, y, strengths(rb, X).f)
            apply_consequent_update(rb, d_w, d_b, eta_cons=0.001,
                                    lambda_l1=0.05, lambda_l2=0.001)
            magnitudes.append(np.abs(rb.w).sum())
        # e == 0 at the start, so only the regularizer moves |w| (down)
        assert magnitudes[1] < magnitudes[0]


def _assert_matches_fd(rb: RuleBase, X, y) -> None:
    d_c1, d_c2 = antecedent_gradients(rb, X, y, strengths(rb, X))
    for j, f in np.ndindex(d_c1.shape):
        fd1 = fd_gradient(rb, X, y, "c1", (j, f))
        fd2 = fd_gradient(rb, X, y, "c2", (j, f))
        assert d_c1[j, f] == pytest.approx(fd1, rel=1e-4, abs=1e-8)
        assert d_c2[j, f] == pytest.approx(fd2, rel=1e-4, abs=1e-8)


class TestAntecedentGradients:
    @pytest.mark.parametrize("seed", range(6))
    def test_matches_finite_differences(self, seed):
        rng = np.random.default_rng(100 + seed)
        rb = random_rulebase(rng, 3, 2, q=float(rng.uniform(0.2, 0.8)))
        X = draw_off_seam(rng, rb, 16)
        y = rng.normal(size=16)
        _assert_matches_fd(rb, X, y)

    def test_matches_finite_differences_many_features(self):
        # five features, so each strength's derivative carries a product
        # over four other factors
        rng = np.random.default_rng(120)
        rb = random_rulebase(rng, 7, 5, q=0.35)
        X = draw_off_seam(rng, rb, 24)
        y = rng.normal(size=24)
        d_c1, d_c2 = antecedent_gradients(rb, X, y, strengths(rb, X))
        assert np.abs(d_c1).max() > 1e-4 and np.abs(d_c2).max() > 1e-4
        _assert_matches_fd(rb, X, y)

    def test_plateau_contributes_nothing_single_rule(self):
        # one rule, input inside the plateau on every feature: the upper
        # side is locally flat and the lower side cancels through the
        # (yr - y_L) factor, so both bound gradients vanish
        rb = RuleBase(c1=np.array([[0.3, 0.2]]), c2=np.array([[0.7, 0.9]]),
                      sigma=np.full((1, 2), 0.2), w=np.zeros((1, 2)),
                      b=np.array([2.0]))
        X = np.array([[0.5, 0.5]])
        y = np.array([0.0])
        d_c1, d_c2 = antecedent_gradients(rb, X, y, strengths(rb, X))
        np.testing.assert_array_equal(d_c1, 0.0)
        np.testing.assert_array_equal(d_c2, 0.0)


class TestApplyAntecedentUpdate:
    def test_clip_limits_step(self, rng):
        rb = random_rulebase(rng, 1, 1)
        before = rb.c1[0, 0]
        apply_antecedent_update(rb, np.array([[5.0]]), np.zeros((1, 1)),
                                eta_ant=0.001)
        assert before - rb.c1[0, 0] == pytest.approx(1e-4, rel=1e-9)

    def test_zero_gradient_keeps_centers(self, rng):
        rb = random_rulebase(rng, 2, 2)
        c1 = rb.c1.copy()
        apply_antecedent_update(rb, np.zeros((2, 2)), np.zeros((2, 2)),
                                eta_ant=0.001)
        np.testing.assert_array_equal(rb.c1, c1)

    def test_inside_band_passes_through(self, rng):
        rb = random_rulebase(rng, 1, 1)
        before = rb.c2[0, 0]
        apply_antecedent_update(rb, np.zeros((1, 1)), np.array([[-0.05]]),
                                eta_ant=0.001)
        assert rb.c2[0, 0] - before == pytest.approx(5e-5, rel=1e-9)

    def test_no_parameter_moves_beyond_clip_budget(self, rng):
        rb = random_rulebase(rng, 4, 3)
        c1, c2 = rb.c1.copy(), rb.c2.copy()
        g1 = rng.normal(0, 10, (4, 3))
        g2 = rng.normal(0, 10, (4, 3))
        apply_antecedent_update(rb, g1, g2, eta_ant=0.01)
        assert np.abs(rb.c1 - c1).max() <= 0.01 * 0.1 + 1e-15
        assert np.abs(rb.c2 - c2).max() <= 0.01 * 0.1 + 1e-15

    def test_type1_moves_rigidly(self, rng):
        rb = random_rulebase(rng, 2, 2, mode=Mode.TYPE1_ORDER1)
        c = rb.c1.copy()
        g1 = rng.normal(0, 0.01, (2, 2))
        g2 = rng.normal(0, 0.01, (2, 2))
        apply_antecedent_update(rb, g1, g2, eta_ant=0.5)
        np.testing.assert_array_equal(rb.c1, rb.c2)
        expected = c - 0.5 * np.clip(g1 + g2, -0.1, 0.1)
        np.testing.assert_allclose(rb.c1, expected, rtol=1e-12)


class TestEnforceConstraints:
    def _base(self, c1, c2):
        n = len(c1)
        return RuleBase(c1=np.array([c1]), c2=np.array([c2]),
                        sigma=np.full((1, n), 0.1),
                        w=np.zeros((1, n)), b=np.zeros(1))

    def test_swap(self):
        rb = self._base([0.7], [0.6])
        enforce_constraints(rb)
        assert (rb.c1[0, 0], rb.c2[0, 0]) == (0.6, 0.7)

    def test_symmetric_expansion(self):
        rb = self._base([0.5], [0.52])
        enforce_constraints(rb)
        assert rb.c1[0, 0] == pytest.approx(0.485, abs=1e-12)
        assert rb.c2[0, 0] == pytest.approx(0.535, abs=1e-12)
        assert rb.c2[0, 0] - rb.c1[0, 0] >= 0.05

    def test_feasible_untouched(self):
        rb = self._base([0.2], [0.4])
        enforce_constraints(rb)
        assert (rb.c1[0, 0], rb.c2[0, 0]) == (0.2, 0.4)

    def test_measured_width_never_short(self, rng):
        # sweep many midpoints; rounding of mid +/- half must not leave
        # the stored width below the bound
        mids = rng.uniform(-10, 10, 500)
        rb = RuleBase(c1=mids.reshape(-1, 1), c2=mids.reshape(-1, 1) + 1e-9,
                      sigma=np.full((500, 1), 0.1),
                      w=np.zeros((500, 1)), b=np.zeros(500))
        enforce_constraints(rb)
        assert np.all(rb.c2 - rb.c1 >= 0.05)

    def test_type1_exempt(self, rng):
        rb = random_rulebase(rng, 2, 2, mode=Mode.TYPE1_ORDER1)
        c = rb.c1.copy()
        enforce_constraints(rb)
        np.testing.assert_array_equal(rb.c1, c)
        np.testing.assert_array_equal(rb.c2, c)


class TestAdaptLearningRates:
    def _state(self, cons=0.01, ant=0.001):
        return TrainState(eta_cons=cons, eta_ant=ant)

    def test_improvement_grows_both(self):
        s = adapt_learning_rates(self._state(), 1.0, 0.9)
        assert s.eta_cons == pytest.approx(0.0105)
        assert s.eta_ant == pytest.approx(0.00105)

    def test_regression_shrinks_asymmetrically(self):
        s = adapt_learning_rates(self._state(), 0.9, 1.0)
        assert s.eta_cons == pytest.approx(0.009)
        assert s.eta_ant == pytest.approx(0.00095)

    def test_plateau_counts_as_no_improvement(self):
        s = adapt_learning_rates(self._state(), 1.0, 1.0)
        assert s.eta_cons == pytest.approx(0.009)

    def test_upper_clamp(self):
        s = adapt_learning_rates(self._state(cons=0.049, ant=0.0199),
                                 1.0, 0.9)
        assert s.eta_cons == 0.05
        assert s.eta_ant == 0.02

    def test_lower_clamp(self):
        s = adapt_learning_rates(self._state(cons=1.05e-5, ant=1.04e-6),
                                 0.9, 1.0)
        assert s.eta_cons == 1e-5
        assert s.eta_ant == 1e-6


def _toy_training_setup(seed=0, n=200, mode=Mode.IT2, rules=3,
                        noise=0.02, latent=2, features=2):
    raw = generate_synthetic(SyntheticSpec(n_samples=n, n_features=features,
                                           n_latent_rules=latent,
                                           noise_std=noise, seed=seed))
    data = normalize_and_split(raw, seed=seed)
    cfg = InitConfig(n_rules=rules, seed=seed, mode=mode)
    ranges = [(0.0, 1.0)] * features
    return build_rulebase(cfg, ranges), data


class TestTrain:
    def test_determinism(self):
        results = []
        for _ in range(2):
            rb, data = _toy_training_setup()
            cfg = TrainConfig(max_epochs=15, patience=50, seed=3)
            best, state = train(rb, data, cfg)
            results.append((best, state))
        a, b = results
        np.testing.assert_array_equal(a[0].c1, b[0].c1)
        np.testing.assert_array_equal(a[0].c2, b[0].c2)
        np.testing.assert_array_equal(a[0].w, b[0].w)
        np.testing.assert_array_equal(a[0].b, b[0].b)
        assert [r.val_mse for r in a[1].history] == \
            [r.val_mse for r in b[1].history]

    def test_rejects_empty_training_split(self):
        rb, data = _toy_training_setup()
        empty = dataclasses.replace(data, train_idx=data.train_idx[:0])
        with pytest.raises(ValueError) as info:
            train(rb, empty, TrainConfig(max_epochs=1))
        assert str(info.value) == "training split is empty"

    def test_rejects_rule_base_of_wrong_arity(self):
        rb, _ = _toy_training_setup(features=3)
        _, data = _toy_training_setup(features=2)
        with pytest.raises(ValueError) as info:
            train(rb, data, TrainConfig(max_epochs=1))
        assert str(info.value) == \
            "rule base arity does not match the dataset"

    def test_early_stopping_returns_best_epoch(self):
        # noisy and over-parameterized so validation stalls well before
        # the epoch budget
        rb, data = _toy_training_setup(seed=1, n=120, noise=0.3, rules=5)
        cfg = TrainConfig(max_epochs=200, patience=1, seed=3)
        best, state = train(rb, data, cfg)
        stopped_at = state.epoch
        assert stopped_at < 200
        best_epoch = min(state.history, key=lambda r: r.val_mse)
        assert state.best_val_mse == best_epoch.val_mse
        assert best_epoch.checkpointed

    def test_checkpoint_dominates_final(self):
        rb, data = _toy_training_setup()
        cfg = TrainConfig(max_epochs=40, patience=50, seed=3)
        best, state = train(rb, data, cfg)
        assert state.best_val_mse <= state.history[-1].val_mse
        assert state.best_val_mse == \
            min(r.val_mse for r in state.history)

    def test_constraints_hold_every_epoch(self):
        rb, data = _toy_training_setup(rules=4)
        seen = []

        def watch(model, state):
            seen.append((model.c2 - model.c1).min())
            assert np.all(model.c1 <= model.c2)

        cfg = TrainConfig(max_epochs=25, patience=50, seed=1)
        train(rb, data, cfg, epoch_callback=watch)
        assert len(seen) == 25
        assert min(seen) >= 0.05

    def test_rates_stay_bounded(self):
        rb, data = _toy_training_setup()
        cfg = TrainConfig(max_epochs=60, patience=60, seed=2)
        _, state = train(rb, data, cfg)
        for record in state.history:
            assert 1e-5 <= record.eta_cons <= 0.05
            assert 1e-6 <= record.eta_ant <= 0.02

    def test_epoch_log_jsonl(self, tmp_path):
        import json

        rb, data = _toy_training_setup()
        log = tmp_path / "run.jsonl"
        cfg = TrainConfig(max_epochs=5, patience=50, seed=0, log_path=log)
        _, state = train(rb, data, cfg)
        lines = [json.loads(line) for line in
                 log.read_text().strip().splitlines()]
        assert len(lines) == 5
        assert set(lines[0]) == {"epoch", "train_mse", "val_mse",
                                 "eta_cons", "eta_ant", "checkpointed"}
        assert lines[0]["epoch"] == 1

    def test_noiseless_affine_recovery(self):
        raw = generate_synthetic(SyntheticSpec(
            n_samples=400, n_features=3, n_latent_rules=1,
            noise_std=0.0, seed=21))
        data = normalize_and_split(raw, seed=21)
        rb = build_rulebase(InitConfig(n_rules=1, seed=21,
                                       mode=Mode.TYPE1_ORDER1),
                            [(0.0, 1.0)] * 3)
        cfg = TrainConfig(max_epochs=500, patience=500, seed=21,
                          lambda_l1=0.0, lambda_l2=0.0)
        best, _ = train(rb, data, cfg)
        Xtr, ytr = data.subset(data.train_idx)
        _, _, y_pred = predict_arrays(best, Xtr)
        assert float(np.mean((y_pred - ytr) ** 2)) < 1e-3

    def test_non_finite_loss_stops_training(self):
        # a finite validation row far outside [0, 1] overflows the
        # affine consequents: the validation MSE is inf at epoch 1
        data = normalize_and_split(generate_synthetic(SyntheticSpec(
            n_samples=100, n_features=3, seed=1)), 0)
        data.X[data.val_idx[0], 0] = 1e200
        rb = build_rulebase(InitConfig(n_rules=3, seed=1), [(0.0, 1.0)] * 3)
        with np.errstate(over="ignore"), \
                pytest.raises(TrainingDiverged) as info:
            train(rb, data, TrainConfig(max_epochs=3))
        message = str(info.value)
        assert message.startswith("non-finite loss at epoch 1: train=")
        assert message.endswith(", val=inf")

    def test_divergence_diagnostic_names_block(self, rng):
        rb = random_rulebase(rng, 2, 2)
        rb.w[1, 0] = math.inf
        with pytest.raises(TrainingDiverged, match="'w' at epoch 7"):
            _check_finite(rb, 7)

    @pytest.mark.parametrize("q", [0.0, 0.3, 1.0])
    @pytest.mark.parametrize("mode", [Mode.IT2, Mode.TYPE1_ORDER1])
    def test_q_stays_as_given(self, mode, q):
        rb, data = _toy_training_setup(seed=5, mode=mode)
        rb.q = q
        best, state = train(rb, data, TrainConfig(max_epochs=5, seed=5))
        assert all(math.isfinite(r.train_mse) and math.isfinite(r.val_mse)
                   for r in state.history)
        assert len(state.history) == 5
        assert best.q.hex() == q.hex()

    def test_config_validation(self):
        with pytest.raises(ValueError):
            TrainConfig(max_epochs=0).validate()
        with pytest.raises(ValueError):
            TrainConfig(eta_cons=-1.0).validate()

    @pytest.mark.parametrize("field", ["max_epochs", "batch_size",
                                       "patience"])
    def test_count_below_one_rejected_by_name(self, field):
        with pytest.raises(ValueError, match=f"^{field} must be >= 1$"):
            TrainConfig(**{field: 0}).validate()

    @pytest.mark.parametrize("field, value", [
        ("eta_cons", 0.5), ("eta_cons", 1e-6), ("eta_ant", 0.5),
        ("eta_ant", 1e-7), ("eta_cons", math.nan), ("eta_ant", math.inf),
    ])
    def test_start_rate_outside_its_clamp_rejected(self, field, value):
        lo, hi = {"eta_cons": ETA_CONS_BOUNDS,
                  "eta_ant": ETA_ANT_BOUNDS}[field]
        with pytest.raises(ValueError,
                           match=rf"{field} must lie in \[{lo:g}, {hi:g}\]"):
            TrainConfig(**{field: value}).validate()

    @pytest.mark.parametrize("field, value", [
        ("lambda_l1", math.nan), ("lambda_l1", -0.1),
        ("lambda_l2", math.inf), ("lambda_l2", math.nan),
    ])
    def test_non_finite_or_negative_weight_rejected(self, field, value):
        with pytest.raises(ValueError, match=f"{field} must be finite"):
            TrainConfig(**{field: value}).validate()

    def test_clamp_ends_are_valid_start_rates(self):
        for cons, ant in zip(ETA_CONS_BOUNDS, ETA_ANT_BOUNDS):
            TrainConfig(eta_cons=cons, eta_ant=ant).validate()


def _uncached_train(rb, data, cfg):
    """``train`` written out from the uncached public functions.

    Every gradient and error fires its own rows afresh, so a membership
    cache that goes stale inside ``train`` makes the two disagree.
    """
    Xtr, ytr = data.subset(data.train_idx)
    Xval, yval = data.subset(data.val_idx)
    rng = np.random.default_rng(cfg.seed)
    state = TrainState(eta_cons=cfg.eta_cons, eta_ant=cfg.eta_ant)

    def mse(X, y):
        return float(np.mean((predict_arrays(rb, X)[2] - y) ** 2))

    mse_prev = mse(Xtr, ytr)
    for epoch in range(1, cfg.max_epochs + 1):
        eta_cons_used, eta_ant_used = state.eta_cons, state.eta_ant
        order = rng.permutation(Xtr.shape[0])
        for start in range(0, Xtr.shape[0], cfg.batch_size):
            batch = order[start:start + cfg.batch_size]
            Xb = Xtr[batch]
            d_w, d_b = consequent_gradients(rb, Xb, ytr[batch],
                                            strengths(rb, Xb).f)
            apply_consequent_update(rb, d_w, d_b, state.eta_cons,
                                    cfg.lambda_l1, cfg.lambda_l2)
        d_c1, d_c2 = antecedent_gradients(rb, Xtr, ytr, strengths(rb, Xtr))
        apply_antecedent_update(rb, d_c1, d_c2, state.eta_ant)
        train_mse, val_mse = mse(Xtr, ytr), mse(Xval, yval)
        adapt_learning_rates(state, mse_prev, train_mse)
        mse_prev = train_mse
        checkpointed = val_mse < state.best_val_mse
        if checkpointed:
            state.best_val_mse = val_mse
            state.best_snapshot = rb.copy()
        state.history.append((epoch, train_mse, val_mse, eta_cons_used,
                              eta_ant_used, checkpointed))
    return state.best_snapshot, state.history


class TestMembershipCache:
    @pytest.mark.parametrize("mode, far_rows", [
        pytest.param(Mode.IT2, 0, id="Mode.IT2"),
        pytest.param(Mode.TYPE1_ORDER1, 0, id="Mode.TYPE1_ORDER1"),
        pytest.param(Mode.IT2, 5, id="Mode.IT2-fallback-rows"),
    ])
    def test_train_matches_uncached_loop(self, mode, far_rows):
        cfg = TrainConfig(max_epochs=8, patience=50, seed=4, batch_size=32)
        rb, data = _toy_training_setup(seed=2, n=300, mode=mode, rules=5,
                                       features=3)
        # training rows far from every rule take the uniform fallback
        data.X[data.train_idx[:far_rows]] = 60.0
        if far_rows:
            mu_l, mu_u = kernels.fire(data.X[data.train_idx], rb.c1, rb.c2,
                                      rb.sigma)
            assert (mu_u.sum(axis=1) < kernels.STRENGTH_FLOOR).sum() == \
                far_rows
        best, state = train(rb.copy(), data, cfg)
        want_best, want_history = _uncached_train(rb, data, cfg)
        for name in ("c1", "c2", "sigma", "w", "b"):
            np.testing.assert_array_equal(getattr(best, name),
                                          getattr(want_best, name))
        assert best.q == want_best.q
        assert [(r.epoch, r.train_mse, r.val_mse, r.eta_cons, r.eta_ant,
                 r.checkpointed) for r in state.history] == want_history

    def test_one_membership_pass_per_antecedent_state(self, monkeypatch):
        rb, data = _toy_training_setup(seed=2, n=300, rules=5, features=3)
        n_train, n_val = len(data.train_idx), len(data.val_idx)
        assert n_train != n_val
        fired, normalized = [], []

        def counting(original, rows):
            def wrapper(mu_or_X, *args):
                rows.append(mu_or_X.shape[0])
                return original(mu_or_X, *args)
            return wrapper

        # patch both the kernels' names and core's bindings of them
        fire = counting(kernels.fire, fired)
        normalize = counting(kernels.normalize, normalized)
        for module, fire_name in ((kernels, "fire"), (core, "_fire_batch")):
            monkeypatch.setattr(module, fire_name, fire)
            monkeypatch.setattr(module, "normalize", normalize)
        cfg = TrainConfig(max_epochs=6, patience=50, seed=1)
        train(rb, data, cfg)
        for rows in (fired, normalized):
            assert rows.count(n_train) == cfg.max_epochs + 1
            # everything else is the validation predict, once per epoch
            assert sorted(set(rows)) == sorted({n_train, n_val})
        assert fired == normalized

    def test_gradients_equal_with_and_without_strengths(self, rng):
        rb = random_rulebase(rng, 6, 4, q=0.4)
        X = rng.uniform(-0.2, 1.2, (90, 4))
        X[7] = 60.0  # a uniform-fallback row
        y = rng.normal(size=90)
        st = kernels.normalize(*kernels.fire(X, rb.c1, rb.c2, rb.sigma))
        assert (st.f[7] == 1.0 / 6).all() and (st.inv[7] == 0.0).all()
        # 32 shuffled rows with the fallback row among them
        batch = rng.permutation(np.delete(np.arange(90), 7))[:32]
        batch[rng.integers(32)] = 7
        # the plain side fires its rows afresh
        plain = consequent_gradients(rb, X[batch], y[batch],
                                     strengths(rb, X[batch]).f)
        cached = consequent_gradients(rb, X[batch], y[batch], st.f[batch])
        for a, b in zip(plain, cached):
            np.testing.assert_array_equal(a, b)
        plain = antecedent_gradients(rb, X, y, strengths(rb, X))
        cached = antecedent_gradients(rb, X, y, st)
        for a, b in zip(plain, cached):
            np.testing.assert_array_equal(a, b)
