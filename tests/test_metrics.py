"""Error metrics: frozen examples and invariants."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from it2anfis.metrics import evaluate

finite_floats = st.floats(-1e6, 1e6, allow_nan=False)
# truths stay clear of the subnormal range where |e|/|y| overflows
truth_floats = st.one_of(st.floats(-1e6, -1e-3), st.floats(1e-3, 1e6),
                         st.just(0.0))


class TestEvaluate:
    def test_hand_worked_example(self):
        m = evaluate(np.array([100.0, 200.0]), np.array([110.0, 190.0]))
        assert m.mse == pytest.approx(100.0)
        assert m.rmse == pytest.approx(10.0)
        assert m.mae == pytest.approx(10.0)
        assert m.mape == pytest.approx(7.5)
        assert m.mape_defined

    def test_perfect_prediction(self):
        y = np.array([3.0, -4.0, 5.5])
        m = evaluate(y, y.copy())
        assert (m.mse, m.rmse, m.mae, m.mape) == (0.0, 0.0, 0.0, 0.0)

    def test_zero_truth_disables_mape(self):
        m = evaluate(np.array([0.0, 2.0]), np.array([1.0, 2.0]))
        assert math.isnan(m.mape)
        assert not m.mape_defined
        assert m.mse == pytest.approx(0.5)

    def test_negative_truth_keeps_mape_positive(self):
        m = evaluate(np.array([-100.0]), np.array([-90.0]))
        assert m.mape == pytest.approx(10.0)

    def test_rejects_bad_shapes(self):
        with pytest.raises(ValueError):
            evaluate(np.zeros(3), np.zeros(4))
        with pytest.raises(ValueError):
            evaluate(np.zeros((2, 2)), np.zeros((2, 2)))
        with pytest.raises(ValueError):
            evaluate(np.zeros(0), np.zeros(0))

    @given(st.lists(truth_floats, min_size=1, max_size=30),
           st.data())
    @settings(max_examples=60, deadline=None)
    def test_mae_never_exceeds_rmse(self, true_vals, data):
        pred_vals = data.draw(st.lists(finite_floats,
                                       min_size=len(true_vals),
                                       max_size=len(true_vals)))
        m = evaluate(np.array(true_vals), np.array(pred_vals))
        assert m.mae <= m.rmse + 1e-9 * max(m.rmse, 1.0)
        assert m.rmse == pytest.approx(math.sqrt(m.mse))

    def test_error_scale_equivariance(self, rng):
        y = rng.uniform(50, 150, 20)
        e = rng.normal(0, 5, 20)
        base = evaluate(y, y + e)
        scaled = evaluate(y, y + 3.0 * e)
        assert scaled.mae == pytest.approx(3.0 * base.mae)
        assert scaled.rmse == pytest.approx(3.0 * base.rmse)
        assert scaled.mse == pytest.approx(9.0 * base.mse)

    def test_as_dict(self):
        m = evaluate(np.array([1.0]), np.array([2.0]))
        assert m.as_dict() == {"mse": 1.0, "rmse": 1.0,
                               "mae": 1.0, "mape": 100.0}
