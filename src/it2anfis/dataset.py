"""Tabular ingestion, normalization, splitting, and a synthetic surrogate.

Loads a plant-record CSV (daily energy target plus hydraulic, wastewater
quality, and climate features), or generates a synthetic table with the
same shape when no file is available.  Every CSV, labelled or not, goes
through one reader with one strict policy: a bad row fails the read,
naming the file, line and column, and is never dropped.  A clean file is
parsed by numpy's C parser; any other file, and any file that parser
refuses, goes through the strict cell-by-cell loop, which alone decides
what is rejected and how.  Both give the same array bit for bit.  A
caller that names the columns it uses (``load_features``, or
``load_csv(features=...)`` for ``evaluate``) has only those parsed, so
a text column it never reads cannot fail the read.  Features are
min-max scaled to [0, 1] and the target is z-scored, both fit on the
training split only; the scalers are retained so every reported metric
can be inverted back to original units (MWh).
"""

from __future__ import annotations

import csv
import math
import warnings
from collections.abc import Callable, Iterator
from dataclasses import dataclass
from pathlib import Path

import numpy as np


@dataclass
class RawTable:
    """Parsed numeric table, prior to any scaling.

    Holds every data line of the file: a line with a bad cell fails the
    load instead of being dropped.  A date column, if named, is never
    parsed and is not among ``column_names``.
    """

    column_names: list[str]
    rows: np.ndarray
    target_column: str

    @property
    def n_rows(self) -> int:
        return self.rows.shape[0]


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


#: characters on which numpy's parser and the strict loop can disagree:
#: csv quoting (a header that spans lines needs it too), NUL (which csv
#: rejects on Python 3.10), and the ASCII separators U+001C..U+001F,
#: which numpy strips as whitespace and ``float`` does not
_SLOW_PATH_CHARS = '"\0\x1c\x1d\x1e\x1f'


def _parse_clean(path: Path, width: int,
                 positions: list[int]) -> np.ndarray | None:
    """The selected columns by numpy's C parser, or None for the loop.

    Returns an array only when the file's data lines are strict UTF-8
    without a ``_SLOW_PATH_CHARS`` character or a line longer than
    csv's field limit, every line has ``width`` cells, and every
    selected cell is a finite real that numpy parses.  On such a file
    numpy and ``float`` read the same ASCII grammar, so the array is the
    strict loop's bit for bit.  Unselected cells (dates, text) are never
    parsed.  Every other file, header-only ones included, returns None.
    """
    try:
        text = path.read_text(encoding="utf-8")
    except UnicodeDecodeError:
        return None
    body = text.partition("\n")[2]
    if any(ch in body for ch in _SLOW_PATH_CHARS):
        return None
    lines = body.split("\n")
    if max(map(len, lines)) > csv.field_size_limit():
        return None
    skip = {i: (lambda _cell: 0.0) for i in range(width)
            if i not in positions}
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            table = np.loadtxt(lines, delimiter=",", ndmin=2, comments=None,
                               converters=skip)
    except (ValueError, Warning):  # the strict loop names the fault
        return None
    if table.shape[1] != width:
        return None
    table = table[:, positions]
    return table if np.isfinite(table).all() else None


def _records(path: Path, handle) -> Iterator[tuple[int, list[str]]]:
    """(line number, cells) of each csv record; a csv.Error, such as a
    field over ``csv.field_size_limit()``, fails naming file and line."""
    reader = csv.reader(handle)
    try:
        for record in reader:
            yield reader.line_num, record
    except csv.Error as exc:
        raise ValueError(f"{path}: line {reader.line_num}: {exc}") from None


def _read_csv(path: str | Path, select: Callable[[list[str]], list[str]]
              ) -> tuple[list[str], np.ndarray]:
    """The one CSV parse loop, under the one bad-row policy.

    ``select(header)`` names the columns to parse, in order, or raises
    ValueError for what the header lacks.  Blank lines are skipped.  A
    header that repeats a name, a row whose cell count differs from the
    header's, a selected cell that is not a finite real, or a record csv
    cannot read raises ValueError naming the file (and the line and
    column).  No row is dropped, so row k of the result is the k-th data
    line of the file.  A file that ``_parse_clean`` accepts skips the
    loop.
    """
    path = Path(path)
    if not path.is_file():
        raise FileNotFoundError(f"no such data file: {path}")
    # a byte that is not UTF-8 decodes to U+FFFD, which no float parses,
    # so it fails as a bad cell with its line and column named
    with path.open(newline="", encoding="utf-8", errors="replace") as handle:
        records = _records(path, handle)
        try:
            header = [h.strip() for h in next(records)[1]]
        except StopIteration:
            raise ValueError(f"{path}: empty file, expected a header row")
        repeated = sorted({h for h in header if header.count(h) > 1})
        if repeated:
            raise ValueError(f"{path}: header repeats column "
                             f"{', '.join(map(repr, repeated))}")
        try:
            names = select(header)
        except ValueError as exc:
            raise ValueError(f"{path}: {exc}") from None
        positions = [header.index(name) for name in names]
        table = _parse_clean(path, len(header), positions)
        if table is not None:
            return names, table
        rows: list[list[float]] = []
        for line, record in records:
            if not any(cell.strip() for cell in record):
                continue
            if len(record) != len(header):
                raise ValueError(f"{path}: line {line}: {len(record)} "
                                 f"cells, header has {len(header)}")
            try:
                rows.append([_parse_cell(record[i]) for i in positions])
            except ValueError:
                # the location is formatted only for the failing row
                for i in positions:
                    try:
                        _parse_cell(record[i])
                    except ValueError as exc:
                        raise ValueError(
                            f"{path}: line {line}, column {header[i]!r}: "
                            f"{exc}") from None
    return names, np.asarray(rows, dtype=np.float64).reshape(-1, len(names))


def load_csv(path: str | Path, target_column: str,
             date_column: str | None = None,
             features: list[str] | None = None) -> RawTable:
    """Read a header-led CSV into a RawTable.

    Every column but the date column must hold a finite real on every
    data line; the first bad row fails the read (see ``_read_csv``).
    Given ``features``, only those columns and the target are parsed,
    in header order, and any other column is never read.  Raises on a
    missing file, a missing target or date column, a date column that is
    the target, a named feature that the header lacks, no feature column
    beside the target, or a file with no data rows, in that order; all
    but the last before any row is parsed.
    """
    def numeric_columns(header: list[str]) -> list[str]:
        for role, name in (("target", target_column), ("date", date_column)):
            if name is not None and name not in header:
                raise ValueError(f"{role} column {name!r} not in header "
                                 f"{header}")
        if date_column == target_column:
            raise ValueError(f"date column {date_column!r} is also the "
                             f"target column")
        names = [h for h in header if h != date_column and (
            features is None or h in features or h == target_column)]
        missing = [c for c in features or () if c not in names]
        if missing:
            raise ValueError(f"missing model feature columns {missing}")
        if names == [target_column]:
            raise ValueError(f"no feature column beside target column "
                             f"{target_column!r}")
        return names

    names, rows = _read_csv(path, numeric_columns)
    if rows.shape[0] == 0:
        raise ValueError(f"{path}: zero usable rows below the header")
    return RawTable(column_names=names, rows=rows,
                    target_column=target_column)


def load_features(path: str | Path, feature_names: list[str]) -> np.ndarray:
    """The named feature columns of a CSV, in that order, as (N, F).

    Same policy as ``load_csv``, but only the named columns are parsed
    and a file with no data rows gives a (0, F) array.
    """
    def features(header: list[str]) -> list[str]:
        missing = [c for c in feature_names if c not in header]
        if missing:
            raise ValueError(f"missing model feature columns {missing}")
        return feature_names

    return _read_csv(path, features)[1]


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
