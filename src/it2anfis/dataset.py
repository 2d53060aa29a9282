"""Tabular ingestion, normalization, splitting, and a synthetic surrogate.

Loads a plant-record CSV (daily energy target plus hydraulic, wastewater
quality, and climate features), or generates a synthetic table with the
same shape when no file is available.  Features are min-max scaled to
[0, 1] and the target is z-scored, both fit on the training split only;
the scalers are retained so every reported metric can be inverted back
to original units (MWh).
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np


@dataclass
class RawTable:
    """Parsed numeric table, prior to any scaling.

    Rows containing unparseable or non-finite cells are dropped at load
    time; ``dropped_count`` reports how many.  A date column, if named,
    is carried for reporting but never enters the feature matrix.
    """

    column_names: list[str]
    rows: np.ndarray
    target_column: str
    date_column: str | None = None
    dates: list[str] | None = None
    dropped_count: int = 0

    @property
    def n_rows(self) -> int:
        return self.rows.shape[0]

    @property
    def feature_names(self) -> list[str]:
        """Numeric columns other than the target (dates live separately)."""
        return [c for c in self.column_names if c != self.target_column]


@dataclass
class FeatureScaler:
    """Min-max parameters for one feature, in original units."""

    name: str
    min: float
    max: float

    def transform(self, x: np.ndarray) -> np.ndarray:
        return (x - self.min) / (self.max - self.min)

    def inverse(self, x: np.ndarray) -> np.ndarray:
        return x * (self.max - self.min) + self.min


@dataclass
class TargetScaler:
    """Z-score parameters for the target, in original units (MWh)."""

    name: str
    mean: float
    std: float

    def transform(self, y: np.ndarray) -> np.ndarray:
        return (y - self.mean) / self.std

    def inverse(self, y: np.ndarray) -> np.ndarray:
        return y * self.std + self.mean


@dataclass
class Dataset:
    """Normalized modeling matrix with reproducible split indices.

    X holds min-max scaled features (training rows lie in [0, 1];
    validation/test rows may fall outside and are not clipped); y is the
    z-scored target.  The three index arrays are disjoint and cover all
    rows.
    """

    X: np.ndarray
    y: np.ndarray
    feature_scalers: list[FeatureScaler]
    target_scaler: TargetScaler
    train_idx: np.ndarray
    val_idx: np.ndarray
    test_idx: np.ndarray

    @property
    def feature_names(self) -> list[str]:
        return [s.name for s in self.feature_scalers]

    def subset(self, idx: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        return self.X[idx], self.y[idx]


@dataclass
class SyntheticSpec:
    """Parameters of the synthetic surrogate table."""

    n_samples: int = 1000
    n_features: int = 13
    n_latent_rules: int = 4
    noise_std: float = 0.05
    seed: int = 0

    def validate(self) -> None:
        if self.n_samples < 10:
            raise ValueError("n_samples must be >= 10")
        if self.n_features < 1:
            raise ValueError("n_features must be >= 1")
        if self.n_latent_rules < 1:
            raise ValueError("n_latent_rules must be >= 1")
        if not (math.isfinite(self.noise_std) and self.noise_std >= 0):
            raise ValueError("noise_std must be a finite value >= 0")


def _parse_cell(text: str) -> float:
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(f"non-finite cell: {text!r}")
    return value


def load_csv(path: str | Path, target_column: str,
             date_column: str | None = None) -> RawTable:
    """Read a header-led CSV into a RawTable.

    Every non-date column must parse as a finite real; rows violating
    that are dropped and counted.  Raises on a missing file, a missing
    target or date column, or when no usable rows remain.
    """
    path = Path(path)
    if not path.is_file():
        raise FileNotFoundError(f"no such data file: {path}")
    with path.open(newline="", encoding="utf-8") as handle:
        reader = csv.reader(handle)
        try:
            header = [h.strip() for h in next(reader)]
        except StopIteration:
            raise ValueError(f"{path}: empty file, expected a header row")
        if target_column not in header:
            raise ValueError(f"{path}: target column {target_column!r} "
                             f"not in header {header}")
        if date_column is not None and date_column not in header:
            raise ValueError(f"{path}: date column {date_column!r} "
                             f"not in header {header}")
        date_pos = header.index(date_column) if date_column else None

        numeric_pos = [i for i in range(len(header)) if i != date_pos]
        rows: list[list[float]] = []
        dates: list[str] = []
        dropped = 0
        for record in reader:
            if not record or all(not cell.strip() for cell in record):
                continue
            if len(record) != len(header):
                dropped += 1
                continue
            try:
                parsed = [_parse_cell(record[i]) for i in numeric_pos]
            except ValueError:
                dropped += 1
                continue
            rows.append(parsed)
            if date_pos is not None:
                dates.append(record[date_pos].strip())

    if not rows:
        raise ValueError(f"{path}: zero usable rows "
                         f"({dropped} dropped)")
    return RawTable(
        column_names=[header[i] for i in numeric_pos],
        rows=np.asarray(rows, dtype=np.float64),
        target_column=target_column,
        date_column=date_column,
        dates=dates if date_column is not None else None,
        dropped_count=dropped,
    )


def split_sizes(n: int) -> tuple[int, int, int]:
    """64/16/20 percent split counts, rounding half up."""
    n_train = int(math.floor(0.64 * n + 0.5))
    n_val = int(math.floor(0.16 * n + 0.5))
    n_train = min(n_train, n)
    n_val = min(n_val, n - n_train)
    return n_train, n_val, n - n_train - n_val


def normalize_and_split(raw: RawTable, seed: int) -> Dataset:
    """Scale features/target on training statistics and split by seed.

    The row order is shuffled by a seeded generator, the first 64%
    becomes the training split, the next 16% validation, the rest test.
    Scaling parameters are computed from the training rows alone.
    Raises when a feature or the target is constant on the training
    split, naming the offending column.
    """
    if raw.n_rows < 10:
        raise ValueError(f"need at least 10 rows, got {raw.n_rows}")
    t_pos = raw.column_names.index(raw.target_column)
    f_pos = [i for i, _ in enumerate(raw.column_names) if i != t_pos]
    f_names = [raw.column_names[i] for i in f_pos]

    n = raw.n_rows
    order = np.random.default_rng(seed).permutation(n)
    n_train, n_val, _ = split_sizes(n)
    train_idx = np.sort(order[:n_train])
    val_idx = np.sort(order[n_train:n_train + n_val])
    test_idx = np.sort(order[n_train + n_val:])

    features = raw.rows[:, f_pos]
    target = raw.rows[:, t_pos]

    scalers: list[FeatureScaler] = []
    X = np.empty_like(features)
    for k, name in enumerate(f_names):
        col = features[:, k]
        lo = float(col[train_idx].min())
        hi = float(col[train_idx].max())
        if hi == lo:
            raise ValueError(f"feature {name!r} is constant on the "
                             f"training split (value {lo})")
        scaler = FeatureScaler(name=name, min=lo, max=hi)
        X[:, k] = scaler.transform(col)
        scalers.append(scaler)

    mean = float(target[train_idx].mean())
    std = float(target[train_idx].std())
    if std == 0.0:
        raise ValueError(f"target {raw.target_column!r} is constant on "
                         f"the training split (value {mean})")
    t_scaler = TargetScaler(name=raw.target_column, mean=mean, std=std)
    y = t_scaler.transform(target)

    return Dataset(X=X, y=y, feature_scalers=scalers, target_scaler=t_scaler,
                   train_idx=train_idx, val_idx=val_idx, test_idx=test_idx)


def inverse_target(y_norm, scaler: TargetScaler):
    """Map standardized target values back to original units."""
    return scaler.inverse(np.asarray(y_norm, dtype=np.float64))


def generate_synthetic(spec: SyntheticSpec) -> RawTable:
    """Deterministic surrogate table with locally linear structure.

    Features are uniform on plausible per-column ranges.  The target is
    a mixture of ``n_latent_rules`` affine models, gated by Gaussian
    bumps placed in feature space, plus optional Gaussian noise.  With a
    single latent rule and zero noise the target is exactly affine in
    the features.
    """
    spec.validate()
    rng = np.random.default_rng(spec.seed)
    n, F, K = spec.n_samples, spec.n_features, spec.n_latent_rules

    lows = rng.uniform(-5.0, 5.0, size=F)
    spans = rng.uniform(1.0, 10.0, size=F)
    features = lows + spans * rng.random((n, F))

    unit = (features - lows) / spans
    centers = rng.random((K, F))
    widths = rng.uniform(0.25, 0.6, size=(K, F))
    slopes = rng.normal(0.0, 1.0, size=(K, F))
    offsets = rng.normal(0.0, 0.5, size=K)

    if K == 1:
        gates = np.ones((n, 1))
    else:
        z = (unit[:, None, :] - centers) / widths
        bumps = np.exp(-0.5 * (z * z).sum(axis=2))
        gates = bumps / bumps.sum(axis=1, keepdims=True)

    local = unit @ slopes.T + offsets
    target = (gates * local).sum(axis=1)
    if spec.noise_std > 0:
        target = target + rng.normal(0.0, spec.noise_std, size=n)
    # scale into an energy-like range so reported units read naturally
    target = 260.0 + 40.0 * target

    names = [f"x{k + 1}" for k in range(F)] + ["energy_mwh"]
    rows = np.column_stack([features, target])
    return RawTable(column_names=names, rows=rows,
                    target_column="energy_mwh")
