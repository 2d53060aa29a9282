"""Two-tier gradient training with adaptive rates and checkpointing.

Consequents learn by mini-batch gradient descent under combined L1/L2
regularization; antecedent interval bounds learn once per epoch from
exact analytic gradients over the full training split, with per-element
clipping.  Both learning rates adapt to the epoch-over-epoch change in
training error.  The best-validation snapshot is kept and restored, and
training stops early when validation stalls.

The schedule is fixed: rates grow by ``LR_UP`` on improvement, decay by
``LR_DOWN_CONS`` / ``LR_DOWN_ANT`` otherwise, and stay within
``ETA_CONS_BOUNDS`` / ``ETA_ANT_BOUNDS``; antecedent gradients are
clipped to [-``GRAD_CLIP``, ``GRAD_CLIP``], and repair keeps every
interval at least ``core.MIN_SEPARATION`` wide.

Only the antecedent update moves the memberships, so ``train`` fires
the training split and normalizes its strengths (``core.strengths``)
once before the loop and once after each antecedent update, into one
``kernels.Strengths``: one stored side for a type-1 mode, two for IT2.
As in Jang's hybrid learning, the premise part is fixed while the
consequents learn: each epoch gathers its shuffled rows of the
(N, S, R) normalized strengths once and the mini-batch consequent steps
read slices of them, and the antecedent gradient and the train error
read the whole of it.  Every gradient function takes its strengths as
an argument; only ``core.strengths`` computes them.  The blend factor
``q`` is fixed: training reads it and never writes it.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass, field
from pathlib import Path

import numpy as np

from . import kernels
from .core import (MIN_SEPARATION, Mode, RuleBase, forward, predict_arrays,
                   strengths)
from .dataset import Dataset

#: clamps of the consequent and antecedent learning rates
ETA_CONS_BOUNDS = (1e-5, 0.05)
ETA_ANT_BOUNDS = (1e-6, 0.02)
#: rate growth after an epoch that lowers the training error
LR_UP = 1.05
#: consequent and antecedent rate decay after one that does not
LR_DOWN_CONS = 0.9
LR_DOWN_ANT = 0.95
#: per-element clip of the antecedent gradients
GRAD_CLIP = 0.1


class TrainingDiverged(RuntimeError):
    """Raised when the loss or a parameter block leaves the finite range."""


@dataclass
class TrainConfig:
    """Hyperparameters of the training loop.

    The starting rates must lie within ``ETA_CONS_BOUNDS`` and
    ``ETA_ANT_BOUNDS``, the clamps the schedule keeps them in.
    """

    max_epochs: int = 500
    batch_size: int = 64
    eta_cons: float = 0.01
    eta_ant: float = 0.001
    lambda_l1: float = 0.05
    lambda_l2: float = 0.001
    patience: int = 50
    seed: int = 0
    log_path: str | Path | None = None

    def validate(self) -> None:
        for name in ("max_epochs", "batch_size", "patience"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1")
        for name, (lo, hi) in (("eta_cons", ETA_CONS_BOUNDS),
                               ("eta_ant", ETA_ANT_BOUNDS)):
            # the negated test also rejects NaN
            if not lo <= getattr(self, name) <= hi:
                raise ValueError(f"{name} must lie in [{lo:g}, {hi:g}], "
                                 f"got {getattr(self, name)}")
        for name in ("lambda_l1", "lambda_l2"):
            if not 0 <= getattr(self, name) < math.inf:
                raise ValueError(f"{name} must be finite and >= 0, "
                                 f"got {getattr(self, name)}")


@dataclass
class EpochRecord:
    epoch: int
    train_mse: float
    val_mse: float
    eta_cons: float
    eta_ant: float
    checkpointed: bool


@dataclass
class TrainState:
    """Mutable loop state: current rates, best snapshot, history."""

    eta_cons: float
    eta_ant: float
    epoch: int = 0
    best_val_mse: float = math.inf
    best_snapshot: RuleBase | None = None
    epochs_since_improvement: int = 0
    history: list[EpochRecord] = field(default_factory=list)


def consequent_gradients(rb: RuleBase, Xb: np.ndarray, yb: np.ndarray,
                         f: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Batch gradients of the half mean-squared error w.r.t. w and b.

    d_b[j] = mean_n(e_n * phi_n_j) and d_w[j] = mean_n(e_n * phi_n_j * x_n),
    with e the blended prediction error and phi = q*fbar_L + (1-q)*fbar_U.
    ``f`` is the batch's (B, S, R) normalized strengths under the
    current antecedents, lower side first and upper side last.
    """
    q = rb.q
    y_p = forward(rb, Xb, f)[2]
    phi = q * f[:, 0] + (1.0 - q) * f[:, -1]
    B = Xb.shape[0]
    weights = (y_p - yb)[:, None] * phi
    return weights.T @ Xb / B, np.add.reduce(weights, 0) / B


def apply_consequent_update(rb: RuleBase, d_w: np.ndarray, d_b: np.ndarray,
                            eta_cons: float, lambda_l1: float,
                            lambda_l2: float) -> RuleBase:
    """Regularized descent step on the consequents, in place.

    Each parameter moves by -eta * ((grad + l2 * value) + l1 * sign(value))
    with sign(0) = 0, in that order.  Order-0 mode keeps every slope
    pinned at zero.
    """
    for value, grad in ((rb.w, d_w), (rb.b, d_b)):
        step = grad + lambda_l2 * value
        step += lambda_l1 * np.sign(value)
        step *= eta_cons
        value -= step
    if rb.mode is Mode.TYPE1_ORDER0:
        rb.w[:] = 0.0
    return rb


def antecedent_gradients(rb: RuleBase, X_full: np.ndarray,
                         y_full: np.ndarray, st: kernels.Strengths
                         ) -> tuple[np.ndarray, np.ndarray]:
    """Exact full-split gradients of the half-MSE w.r.t. c1 and c2.

    ``st`` is the ``kernels.Strengths`` of X_full under the current
    antecedents.  For a type-1 mode's one stored side it returns the
    tied centre's gradient d_c1 + d_c2 and zeros, which is all that
    ``apply_antecedent_update`` reads.
    """
    X_full = np.ascontiguousarray(X_full, dtype=np.float64)
    y_full = np.ascontiguousarray(y_full, dtype=np.float64)
    return kernels.ant_grads_from(st, X_full, y_full, rb.c1, rb.c2,
                                  rb.sigma, rb.w, rb.b, rb.q)


def apply_antecedent_update(rb: RuleBase, d_c1: np.ndarray, d_c2: np.ndarray,
                            eta_ant: float) -> RuleBase:
    """Clipped descent step on the interval bounds, then repair.

    Type-1 modes move the collapsed center rigidly by the summed bound
    gradients and skip constraint repair (the bounds stay identical).
    """
    if rb.mode.is_type1:
        step = np.clip(d_c1 + d_c2, -GRAD_CLIP, GRAD_CLIP)
        rb.c1 -= eta_ant * step
        rb.c2 = rb.c1.copy()
        return rb
    rb.c1 -= eta_ant * np.clip(d_c1, -GRAD_CLIP, GRAD_CLIP)
    rb.c2 -= eta_ant * np.clip(d_c2, -GRAD_CLIP, GRAD_CLIP)
    return enforce_constraints(rb)


def enforce_constraints(rb: RuleBase) -> RuleBase:
    """Restore bound ordering and the minimum interval width, in place.

    Bounds are swapped where inverted, then intervals narrower than
    ``MIN_SEPARATION`` are expanded symmetrically about their midpoint
    (the value inference branches on).  Widening nudges the upper bound
    by float ulps when rounding leaves the measured width short.  Type-1
    modes are exempt: their bounds are collapsed by construction.
    """
    if rb.mode.is_type1:
        return rb
    c1, c2 = rb.c1, rb.c2
    swapped = c1 > c2
    if swapped.any():
        lo = np.where(swapped, c2, c1)
        hi = np.where(swapped, c1, c2)
        c1, c2 = lo, hi
    narrow = (c2 - c1) < MIN_SEPARATION
    if narrow.any():
        mid = 0.5 * (c1 + c2)
        half = 0.5 * MIN_SEPARATION
        c1 = np.where(narrow, mid - half, c1)
        c2 = np.where(narrow, mid + half, c2)
        short = (c2 - c1) < MIN_SEPARATION
        while short.any():
            c2 = np.where(short, np.nextafter(c2, np.inf), c2)
            short = (c2 - c1) < MIN_SEPARATION
    rb.c1 = np.ascontiguousarray(c1)
    rb.c2 = np.ascontiguousarray(c2)
    return rb


def adapt_learning_rates(state: TrainState, mse_prev: float,
                         mse_now: float) -> TrainState:
    """Scale both rates by the improvement signal and clamp to bounds."""
    if mse_prev - mse_now > 0:
        state.eta_cons *= LR_UP
        state.eta_ant *= LR_UP
    else:
        state.eta_cons *= LR_DOWN_CONS
        state.eta_ant *= LR_DOWN_ANT
    state.eta_cons = min(max(state.eta_cons, ETA_CONS_BOUNDS[0]),
                         ETA_CONS_BOUNDS[1])
    state.eta_ant = min(max(state.eta_ant, ETA_ANT_BOUNDS[0]),
                        ETA_ANT_BOUNDS[1])
    return state


def _check_finite(rb: RuleBase, epoch: int) -> None:
    for name in ("c1", "c2", "sigma", "w", "b"):
        if not np.all(np.isfinite(getattr(rb, name))):
            raise TrainingDiverged(
                f"non-finite values in parameter block {name!r} "
                f"at epoch {epoch}")


def _mse(y_pred: np.ndarray, y: np.ndarray) -> float:
    return float(np.mean((y_pred - y) ** 2))


def train(rb: RuleBase, data: Dataset, cfg: TrainConfig,
          epoch_callback=None) -> tuple[RuleBase, TrainState]:
    """Run the full epoch loop and return the best-validation model.

    Per epoch: shuffle the training split, apply mini-batch consequent
    updates, one full-split antecedent update, constraint repair, then
    evaluate train and validation MSE, adapt the rates on the train
    signal, and checkpoint when validation improves.  Stops after
    ``patience`` epochs without a new best or at ``max_epochs``.
    Deterministic for fixed (rb, data, cfg).

    ``epoch_callback(rb, state)``, when given, is invoked read-only at
    the end of every epoch (an observation hook for tests and progress
    reporting).
    """
    cfg.validate()
    rb.validate()
    Xtr, ytr = data.subset(data.train_idx)
    Xval, yval = data.subset(data.val_idx)
    if Xtr.shape[0] == 0:
        raise ValueError("training split is empty")
    if Xtr.shape[1] != rb.n_features:
        raise ValueError("rule base arity does not match the dataset")

    rng = np.random.default_rng(cfg.seed)
    state = TrainState(eta_cons=cfg.eta_cons, eta_ant=cfg.eta_ant)
    st = strengths(rb, Xtr)
    mse_prev = _mse(forward(rb, Xtr, st.f)[2], ytr)

    log_handle = None
    if cfg.log_path is not None:
        log_handle = Path(cfg.log_path).open("w", encoding="utf-8")
    try:
        n_train = Xtr.shape[0]
        for epoch in range(1, cfg.max_epochs + 1):
            state.epoch = epoch
            eta_cons_used = state.eta_cons
            eta_ant_used = state.eta_ant

            # gather the epoch's shuffled rows once; each batch is a slice
            order = rng.permutation(n_train)
            X_o, y_o, f_o = Xtr[order], ytr[order], st.f[order]
            for start in range(0, n_train, cfg.batch_size):
                batch = slice(start, start + cfg.batch_size)
                d_w, d_b = consequent_gradients(rb, X_o[batch], y_o[batch],
                                                f_o[batch])
                apply_consequent_update(rb, d_w, d_b, state.eta_cons,
                                        cfg.lambda_l1, cfg.lambda_l2)
            # drop the gathered copies before the full-split passes
            X_o = y_o = f_o = None

            d_c1, d_c2 = antecedent_gradients(rb, Xtr, ytr, st)
            # release every reference to the stale strengths before
            # refiring, so the two strength sets never coexist
            st = None
            apply_antecedent_update(rb, d_c1, d_c2, state.eta_ant)
            _check_finite(rb, epoch)
            st = strengths(rb, Xtr)

            train_mse = _mse(forward(rb, Xtr, st.f)[2], ytr)
            val_mse = _mse(predict_arrays(rb, Xval)[2], yval)
            if not (math.isfinite(train_mse) and math.isfinite(val_mse)):
                raise TrainingDiverged(
                    f"non-finite loss at epoch {epoch}: "
                    f"train={train_mse}, val={val_mse}")

            adapt_learning_rates(state, mse_prev, train_mse)
            mse_prev = train_mse

            checkpointed = val_mse < state.best_val_mse
            if checkpointed:
                state.best_val_mse = val_mse
                state.best_snapshot = rb.copy()
                state.epochs_since_improvement = 0
            else:
                state.epochs_since_improvement += 1

            record = EpochRecord(
                epoch=epoch, train_mse=train_mse, val_mse=val_mse,
                eta_cons=eta_cons_used, eta_ant=eta_ant_used,
                checkpointed=checkpointed)
            state.history.append(record)
            if log_handle is not None:
                log_handle.write(json.dumps(asdict(record)) + "\n")
            if epoch_callback is not None:
                epoch_callback(rb, state)

            if state.epochs_since_improvement >= cfg.patience:
                break
    finally:
        if log_handle is not None:
            log_handle.close()

    return state.best_snapshot.copy(), state
