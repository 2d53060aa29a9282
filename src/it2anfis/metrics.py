"""Regression metrics in original target units."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


@dataclass
class MetricSet:
    """MSE, RMSE, MAE, and MAPE of one prediction vector.

    MAPE is reported in percent and set to NaN (with the flag below)
    when any true value is zero.
    """

    mse: float
    rmse: float
    mae: float
    mape: float
    mape_defined: bool = True

    def as_dict(self) -> dict[str, float]:
        return {"mse": self.mse, "rmse": self.rmse,
                "mae": self.mae, "mape": self.mape}


def evaluate(y_true: np.ndarray, y_pred: np.ndarray) -> MetricSet:
    """Pointwise error summary of predictions against ground truth."""
    y_true = np.asarray(y_true, dtype=np.float64)
    y_pred = np.asarray(y_pred, dtype=np.float64)
    if y_true.shape != y_pred.shape or y_true.ndim != 1:
        raise ValueError("y_true and y_pred must be 1-d and equal length")
    if y_true.size == 0:
        raise ValueError("need at least one sample")
    err = y_pred - y_true
    mse = float(np.mean(err * err))
    mae = float(np.mean(np.abs(err)))
    if np.any(y_true == 0.0):
        mape = math.nan
        defined = False
    else:
        mape = float(100.0 * np.mean(np.abs(err) / np.abs(y_true)))
        defined = True
    return MetricSet(mse=mse, rmse=math.sqrt(mse), mae=mae, mape=mape,
                     mape_defined=defined)
