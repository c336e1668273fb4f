"""Dataset ingestion, standardization, splitting, and leak sampling.

Real datasets arrive as plain CSV (the loader only assumes the column shapes
of the usual tabular regression benchmarks); CI and the default experiment
profile run on a synthetic generator instead, so nothing here downloads or
redistributes data.
"""

from __future__ import annotations

import csv
import os
import warnings
from dataclasses import dataclass

import numpy as np

__all__ = [
    "DataError",
    "Standardizer",
    "Dataset",
    "LeakedSet",
    "load_csv",
    "split_standardize",
    "sample_leaked",
    "synth_regression",
]


class DataError(ValueError):
    pass


@dataclass(frozen=True)
class Standardizer:
    """Per-column z-score transform fitted on a training split.

    Population (1/n) standard deviations, so a standardized training column
    has variance exactly 1.
    """

    feature_mean: np.ndarray
    feature_std: np.ndarray
    label_mean: float
    label_std: float

    @classmethod
    def fit(cls, features: np.ndarray, labels: np.ndarray) -> "Standardizer":
        f_mean = features.mean(axis=0)
        f_std = features.std(axis=0)
        l_mean = float(labels.mean())
        l_std = float(labels.std())
        if (f_std <= 0).any():
            bad = int(np.argmin(f_std))
            raise DataError(f"feature column {bad} is constant on the training split")
        if l_std <= 0:
            raise DataError("labels are constant on the training split")
        return cls(f_mean, f_std, l_mean, l_std)

    def transform(self, features: np.ndarray, labels: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """New arrays of the z-scores: (x - mean) / std, column by column."""
        features = np.array(features, dtype=np.float64)
        labels = np.array(labels, dtype=np.float64)
        self.transform_in_place(features, labels)
        return features, labels

    def transform_in_place(self, features: np.ndarray, labels: np.ndarray) -> None:
        """Overwrite float64 arrays with their z-scores: subtract the mean,
        then divide by the std, the bytes of (x - mean) / std."""
        features -= self.feature_mean
        features /= self.feature_std
        labels -= self.label_mean
        labels /= self.label_std

    def inverse_labels(self, labels: np.ndarray) -> np.ndarray:
        return labels * self.label_std + self.label_mean

    def inverse_features(self, features: np.ndarray) -> np.ndarray:
        return features * self.feature_std + self.feature_mean


@dataclass(frozen=True)
class Dataset:
    features: np.ndarray  # n x d
    labels: np.ndarray    # n x 1
    name: str = ""
    scaler: Standardizer | None = None

    def __post_init__(self):
        if self.features.ndim != 2 or self.labels.shape != (self.features.shape[0], 1):
            raise DataError(
                f"inconsistent shapes: features {self.features.shape}, labels {self.labels.shape}")
        if self.features.shape[0] < 2:
            raise DataError("need at least 2 samples")

    @property
    def n(self) -> int:
        return self.features.shape[0]

    @property
    def d(self) -> int:
        return self.features.shape[1]


@dataclass(frozen=True)
class LeakedSet:
    """The attacker's few known (sample, label) pairs, drawn from train."""

    indices: np.ndarray   # positions within the train split
    features: np.ndarray
    labels: np.ndarray


def load_csv(path, label_column=-1, header: bool = True, name: str = "") -> Dataset:
    """Read a numeric CSV; every non-label column becomes a feature, in file
    order. `label_column` is a column name (requires a header) or an index
    (negative indices count from the end). A cell that is not a finite number
    (NaN and infinities included), a row whose cell count differs from the
    header's (or, without a header, from the first row's) and a `path` that
    is not a str or os.PathLike (an int would be read as a file descriptor)
    raise DataError.

    The table is parsed by one numpy call. Only a table that call refuses,
    or that holds a value that is not finite, is read again cell by cell
    with `float`: that pass names the row and column at fault, or returns
    what `float` reads where it accepts a spelling numpy does not (`1_000`,
    non-ASCII digits), so the files accepted and the values read are those
    of `float` on every cell.

    The labels and the features are copies that own their data, so the
    parsed table is freed when this returns: no label view keeps it alive."""
    if not isinstance(path, (str, os.PathLike)):
        raise DataError(f"a CSV path is a string or path, got {path!r}")
    parsed = _parse_table(path, header)
    if parsed is None:
        parsed = _parse_cells(path, header, label_column)
    columns, data = parsed
    label_idx = _label_index(label_column, columns, data.shape[1])
    labels = data[:, label_idx:label_idx + 1].copy()
    features = np.delete(data, label_idx, axis=1)
    return Dataset(features, labels, name=name or str(path))


def _open(path):
    try:
        return open(path, newline="")
    except OSError as exc:
        raise DataError(f"cannot open {path}: {exc}") from exc


def _parse_table(path, header: bool) -> tuple[list[str] | None, np.ndarray] | None:
    """(header cells, float64 table), parsed by one numpy call after the csv
    module has read the header; None when numpy refuses the table, finds no
    data rows, reads a value that is not finite or reads rows of another
    width than the header's."""
    with _open(path) as fh:
        columns = None
        if header:
            row = next((row for row in csv.reader(fh) if row), None)
            if row is None:
                return None
            columns = [c.strip() for c in row]
        try:
            with warnings.catch_warnings():
                # numpy warns about a table with no rows; _parse_cells names it
                warnings.simplefilter("ignore", UserWarning)
                data = np.loadtxt(fh, delimiter=",", quotechar='"', comments=None, ndmin=2)
        except ValueError:
            return None
    if not data.size or not np.isfinite(data).all() or \
            (columns is not None and data.shape[1] != len(columns)):
        return None
    return columns, data


def _parse_cells(path, header: bool, label_column) -> tuple[list[str] | None, np.ndarray]:
    """The table read cell by cell with `float`, checked in file order: the
    first empty, ragged, unreadable or non-finite part raises DataError
    naming it, after the header and the label column are checked. A row is
    ragged when its width differs from the header's, or without a header
    from the first row's."""
    with _open(path) as fh:
        rows = [row for row in csv.reader(fh) if row]
    if not rows:
        raise DataError(f"{path}: empty file")

    columns = None
    if header:
        columns = [c.strip() for c in rows[0]]
        rows = rows[1:]
        if not rows:
            raise DataError(f"{path}: header but no data rows")
    width = len(rows[0]) if columns is None else len(columns)
    _label_index(label_column, columns, width)

    expected = f"expected {width}" if columns is None else f"the header has {width}"
    data = np.empty((len(rows), width))
    for i, row in enumerate(rows):
        if len(row) != width:
            raise DataError(f"{path}: row {i + 1} has {len(row)} cells, {expected}")
        for j, cell in enumerate(row):
            try:
                data[i, j] = float(cell)
            except ValueError:
                raise DataError(f"{path}: row {i + 1}, column {j + 1}: "
                                f"cannot parse {cell!r} as a number") from None
    # float() also reads 'nan' and 'inf'; refuse them before any compute
    finite = np.isfinite(data)
    if not finite.all():
        i, j = np.argwhere(~finite)[0]
        raise DataError(f"{path}: row {i + 1}, column {j + 1}: "
                        f"{rows[i][j]!r} is not a finite number")
    return columns, data


def _label_index(label_column, columns: list[str] | None, width: int) -> int:
    """The position of the label column among `width` data columns."""
    if isinstance(label_column, str):
        if columns is None:
            raise DataError("label column given by name but header=False")
        try:
            return columns.index(label_column)
        except ValueError:
            raise DataError(f"label column '{label_column}' not in header {columns}") from None
    label_idx = int(label_column)
    if label_idx < 0:
        label_idx += width
    if not 0 <= label_idx < width:
        raise DataError(f"label column index {label_column} out of range")
    return label_idx


def split_standardize(ds: Dataset, ratio: float = 0.8, seed: int = 0) -> tuple[Dataset, Dataset]:
    """Shuffle by seed, split train:test at `ratio`, then z-score both splits
    with statistics fitted on the training split only.

    Each side's rows are gathered once and standardized in place
    (Standardizer.transform_in_place), so no whole-table temporary is
    made."""
    if not 0 < ratio < 1:
        raise DataError(f"split ratio must be in (0, 1), got {ratio}")
    n_train = int(np.floor(ratio * ds.n))
    if n_train < 1 or n_train >= ds.n:
        raise DataError(f"split ratio {ratio} leaves an empty side for n={ds.n}")

    rng = np.random.default_rng(np.random.SeedSequence([seed, 0xD5]))
    perm = rng.permutation(ds.n)
    tr, te = perm[:n_train], perm[n_train:]

    # each side's rows, gathered once, as float64 arrays of their own
    (f_tr, l_tr), (f_te, l_te) = [
        [np.asarray(table[rows], dtype=np.float64) for table in (ds.features, ds.labels)]
        for rows in (tr, te)]
    scaler = Standardizer.fit(f_tr, l_tr)
    scaler.transform_in_place(f_tr, l_tr)
    scaler.transform_in_place(f_te, l_te)
    train = Dataset(f_tr, l_tr, name=ds.name, scaler=scaler)
    test = Dataset(f_te, l_te, name=ds.name, scaler=scaler)
    return train, test


def sample_leaked(train: Dataset, fraction: float, seed: int = 0) -> LeakedSet:
    """Uniform sample without replacement of round(fraction * n) train rows,
    never fewer than one."""
    if not 0 < fraction <= 1:
        raise DataError(f"leak fraction must be in (0, 1], got {fraction}")
    count = max(1, int(np.floor(fraction * train.n + 0.5)))  # round half up
    rng = np.random.default_rng(np.random.SeedSequence([seed, 0x1EAC]))
    idx = np.sort(rng.choice(train.n, size=count, replace=False))
    return LeakedSet(idx, train.features[idx], train.labels[idx])


def synth_regression(n: int, d: int, noise_std: float = 0.1, seed: int = 0,
                     nonlinearity: float = 1.0) -> Dataset:
    """Synthetic regression task: standard-normal features, target
    X.w + nonlinearity * sin(X.v) + Gaussian noise, with w, v drawn once from
    the seed. Set nonlinearity=0 for an exactly linear target."""
    if n < 2 or d < 1:
        raise DataError(f"need n >= 2 and d >= 1, got n={n}, d={d}")
    if not noise_std >= 0:
        raise DataError(f"noise_std must be >= 0, got {noise_std}")
    rng = np.random.default_rng(np.random.SeedSequence([seed, 0x57A7]))
    w = rng.normal(size=(d, 1))
    v = rng.normal(size=(d, 1))
    x = rng.normal(size=(n, d))
    eps = rng.normal(scale=noise_std, size=(n, 1)) if noise_std > 0 else np.zeros((n, 1))
    y = x @ w + nonlinearity * np.sin(x @ v) + eps
    return Dataset(x, y, name=f"synth(n={n},d={d})")
