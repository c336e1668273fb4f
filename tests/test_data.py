import csv
import os

import numpy as np
import pytest

from splitlab import data
from splitlab.data import (
    DataError,
    Dataset,
    load_csv,
    sample_leaked,
    split_standardize,
    synth_regression,
)


def write(tmp_path, text, name="data.csv"):
    p = tmp_path / name
    p.write_text(text)
    return p


def test_load_csv_basic(tmp_path):
    p = write(tmp_path, "a,b,y\n1,2,3\n4,5,6\n7,8,9\n")
    ds = load_csv(p, label_column="y")
    assert ds.features.shape == (3, 2)
    assert ds.labels.shape == (3, 1)
    assert np.array_equal(ds.features, [[1, 2], [4, 5], [7, 8]])
    assert np.array_equal(ds.labels, [[3], [6], [9]])


def test_load_csv_label_by_index_no_header(tmp_path):
    p = write(tmp_path, "1,2,3\n4,5,6\n")
    ds = load_csv(p, label_column=0, header=False)
    assert np.array_equal(ds.labels, [[1], [4]])
    assert np.array_equal(ds.features, [[2, 3], [5, 6]])


def test_load_csv_negative_label_index(tmp_path):
    p = write(tmp_path, "1,2,3\n4,5,6\n")
    ds = load_csv(p, label_column=-1, header=False)
    assert np.array_equal(ds.labels, [[3], [6]])


def test_load_csv_missing_file(tmp_path):
    with pytest.raises(DataError, match="cannot open"):
        load_csv(tmp_path / "nope.csv")


def test_load_csv_refuses_a_file_descriptor(tmp_path):
    # open() would read an int as a descriptor and close it afterwards
    p = write(tmp_path, "a,y\n1,2\n3,4\n")
    fd = os.open(p, os.O_RDONLY)
    try:
        with pytest.raises(DataError, match=rf"got {fd}$"):
            load_csv(fd)
        os.fstat(fd)  # still open
    finally:
        os.close(fd)


def test_load_csv_parse_error_reports_position(tmp_path):
    p = write(tmp_path, "a,y\n1,2\nx,4\n")
    with pytest.raises(DataError, match="row 2, column 1"):
        load_csv(p, label_column="y")


@pytest.mark.parametrize("cell", ["nan", "inf", "-inf"])
@pytest.mark.parametrize("column", [1, 3], ids=["feature", "label"])
def test_load_csv_refuses_a_cell_that_is_not_finite(tmp_path, cell, column):
    lines = ["a,b,y", "1,2,3", "4,5,6", "7,8,9"]
    row = lines[2].split(",")
    row[column - 1] = cell
    lines[2] = ",".join(row)
    p = write(tmp_path, "\n".join(lines) + "\n")
    with pytest.raises(DataError) as info:
        load_csv(p, label_column="y")
    assert str(info.value) == f"{p}: row 2, column {column}: '{cell}' is not a finite number"


def test_load_csv_ragged_row(tmp_path):
    p = write(tmp_path, "1,2,3\n4,5\n", name="r.csv")
    with pytest.raises(DataError, match="row 2"):
        load_csv(p, header=False)


def test_load_csv_unknown_label(tmp_path):
    p = write(tmp_path, "a,b\n1,2\n3,4\n")
    with pytest.raises(DataError, match="label column"):
        load_csv(p, label_column="z")


def reference_load_csv(path, label_column=-1, header=True):
    """load_csv as a plain loop: the csv module and float() on every cell,
    every row as wide as the header, or without one as the first row."""
    with open(path, newline="") as fh:
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
    if isinstance(label_column, str):
        if columns is None:
            raise DataError("label column given by name but header=False")
        if label_column not in columns:
            raise DataError(f"label column '{label_column}' not in header {columns}")
        label_idx = columns.index(label_column)
    else:
        label_idx = label_column + width if label_column < 0 else label_column
        if not 0 <= label_idx < width:
            raise DataError(f"label column index {label_column} out of range")
    data = np.empty((len(rows), width))
    for i, row in enumerate(rows):
        if len(row) != width:
            expected = f"expected {width}" if columns is None else f"the header has {width}"
            raise DataError(f"{path}: row {i + 1} has {len(row)} cells, {expected}")
        for j, cell in enumerate(row):
            try:
                data[i, j] = float(cell)
            except ValueError:
                raise DataError(f"{path}: row {i + 1}, column {j + 1}: "
                                f"cannot parse {cell!r} as a number") from None
    for i, row in enumerate(rows):
        for j, cell in enumerate(row):
            if not np.isfinite(data[i, j]):
                raise DataError(f"{path}: row {i + 1}, column {j + 1}: "
                                f"{cell!r} is not a finite number")
    return Dataset(np.delete(data, label_idx, axis=1), data[:, label_idx:label_idx + 1],
                   name=str(path))


CSV_CASES = {
    "label by name": ("a,b,y\n1,2,3\n4.5,-5e-3,6\n", "y", True),
    "no header": ("1,2,3\n4,5,6\n", 0, False),
    "crlf": ("a,y\r\n1,2\r\n3,4\r\n", -1, True),
    "bare cr": ("a,y\r1,2\r3,4\r", -1, True),
    "blank lines": ("\na,y\n\n1,2\n\r\n\n3,4\n\n", -1, True),
    "no final newline": ("a,y\n1,2\n3,4", -1, True),
    "spaces around cells": ("a , y \n 1 , 2\t\n3,\xa04\n", "y", True),
    "hash cell": ("a,y\n1,2\n#3,4\n", -1, True),
    "whitespace-only line": ("a,y\n1,2\n \n3,4\n", -1, True),
    "whitespace-only line, one column": ("y\n1\n \n3\n", -1, True),
    "quoted numbers": ('a,y\n"1.5",2\n3,"-4e2"\n', -1, True),
    "text after a closing quote": ('a,y\n"5"x,6\n', -1, True),
    "quoted comma": ('a,y\n"1,5",2\n', -1, True),
    "underscores": ("a,y\n1_000,2\n3,4_5.0_1\n", -1, True),
    "misplaced underscore": ("a,y\n1__000,2\n", -1, True),
    "non-ASCII digits": ("a,y\n\u0661\u0662,2\n3,4\n", -1, True),
    "ragged short row": ("a,y\n1,2\n3\n", -1, True),
    "ragged long row": ("1,2\n3,4,5\n", -1, False),
    "empty cell": ("a,y\n1,\n3,4\n", -1, True),
    "nan": ("a,y\n1,2\n3,nan\n", -1, True),
    "inf": ("a,y\n1,2\n inf ,4\n", -1, True),
    "-inf": ("a,y\n-inf,2\n3,4\n", -1, True),
    "overflow": ("a,y\n1e400,2\n", -1, True),
    "empty file": ("", -1, True),
    "blank lines only": ("\n\r\n\n", -1, False),
    "header only": ("a,y\n\n", -1, True),
    "unknown label before a bad cell": ("a,y\nx,2\n", "z", True),
    "index out of range before a nan": ("1,nan\n", 2, False),
    "header wider than the rows": ("a,b,c\n1,2\n3,4\n", -1, True),
    "header wider than the rows, label by name": ("a,b,y\n1,2\n3,4\n", "y", True),
    "header narrower than the rows": ("a,y\n1,2,3\n4,5,6\n", -1, True),
    "header narrower than a later row": ("a,y\n1,2\n3,4,5\n", -1, True),
    "label index past the rows but inside the header": ("a,b,y\n1,2\n", 2, True),
    "one column": ("y\n1\n2\n", 0, True),
}


@pytest.mark.parametrize("case", sorted(CSV_CASES))
def test_load_csv_accepts_and_refuses_as_a_float_loop_does(tmp_path, case):
    text, label_column, header = CSV_CASES[case]
    p = tmp_path / "data.csv"
    p.write_bytes(text.encode())
    try:
        expected = reference_load_csv(p, label_column, header)
    except DataError as exc:
        with pytest.raises(DataError) as info:
            load_csv(p, label_column=label_column, header=header)
        assert str(info.value) == str(exc)
        return
    ds = load_csv(p, label_column=label_column, header=header)
    for got, want in ((ds.features, expected.features), (ds.labels, expected.labels)):
        assert got.dtype == want.dtype and got.shape == want.shape
        assert got.tobytes() == want.tobytes()
    assert ds.name == expected.name


def test_load_csv_reads_a_clean_table_without_the_cell_loop(tmp_path, monkeypatch):
    def never(*args):
        raise AssertionError("the cell-by-cell pass ran on a table numpy reads")

    monkeypatch.setattr(data, "_parse_cells", never)
    rows = np.random.default_rng(5).normal(size=(50, 4))
    p = tmp_path / "data.csv"
    np.savetxt(p, rows, fmt="%.17g", delimiter=",", header="a,b,c,y", comments="")
    ds = load_csv(p, label_column="y")
    assert ds.labels.tobytes() == np.ascontiguousarray(rows[:, 3:]).tobytes()
    assert ds.features.tobytes() == np.ascontiguousarray(rows[:, :3]).tobytes()


def test_split_sizes():
    ds = synth_regression(10, 3, seed=1)
    train, test = split_standardize(ds, ratio=0.8, seed=0)
    assert train.n == 8 and test.n == 2


def test_split_is_disjoint_and_covers():
    ds = synth_regression(50, 2, seed=3)
    train, test = split_standardize(ds, ratio=0.8, seed=4)
    # reconstruct raw rows via the scaler and match them against the source
    raw_train = train.scaler.inverse_features(train.features)
    raw_test = test.scaler.inverse_features(test.features)
    combined = np.vstack([raw_train, raw_test])
    assert combined.shape == ds.features.shape
    order = np.lexsort(combined.T)
    src_order = np.lexsort(ds.features.T)
    assert np.allclose(combined[order], ds.features[src_order], atol=1e-9)


def test_standardized_train_moments():
    ds = synth_regression(500, 4, seed=9)
    train, _ = split_standardize(ds, seed=2)
    assert np.abs(train.features.mean(axis=0)).max() < 1e-9
    assert np.abs(train.features.std(axis=0) - 1).max() < 1e-9
    assert abs(train.labels.mean()) < 1e-9
    assert abs(train.labels.std() - 1) < 1e-9


def test_zscore_hand_computed_column():
    # column [1, 2, 3] as the whole training split: mean 2, population std
    # sqrt(2/3) = 0.8165, so the z-scores are [-1.2247, 0, 1.2247].
    from splitlab.data import Standardizer

    col = np.array([[1.0], [2.0], [3.0]])
    scaler = Standardizer.fit(col, col)
    feats, labels = scaler.transform(col, col)
    expected = np.array([[-1.224744871391589], [0.0], [1.224744871391589]])
    assert np.abs(feats - expected).max() < 1e-9
    assert np.abs(labels - expected).max() < 1e-9


def test_standardize_inverse_roundtrip():
    ds = synth_regression(100, 5, seed=12)
    train, _ = split_standardize(ds, seed=1)
    raw_f = train.scaler.inverse_features(train.features)
    raw_l = train.scaler.inverse_labels(train.labels)
    # the recovered rows must occur in the source data
    assert np.abs(np.sort(raw_l.ravel()) - np.sort(raw_l.ravel())).max() == 0
    rel = np.abs(raw_f).max()
    rebuilt, rebuilt_l = train.scaler.transform(raw_f, raw_l)
    assert np.abs(rebuilt - train.features).max() < 1e-9 * max(1.0, rel)
    assert np.abs(rebuilt_l - train.labels).max() < 1e-9


def test_constant_column_rejected():
    feats = np.ones((10, 2))
    feats[:, 1] = np.arange(10)
    ds = Dataset(feats, np.arange(10, dtype=float).reshape(-1, 1))
    with pytest.raises(DataError, match="constant"):
        split_standardize(ds, seed=0)


def test_split_ratio_validation():
    ds = synth_regression(10, 2, seed=0)
    with pytest.raises(DataError):
        split_standardize(ds, ratio=1.5)


def test_leaked_size_one_percent_of_404():
    ds = synth_regression(506, 3, seed=5)
    train, _ = split_standardize(ds, ratio=0.8, seed=5)
    assert train.n == 404
    leaked = sample_leaked(train, 0.01, seed=1)
    assert len(leaked.indices) == 4


def test_leaked_full_fraction():
    ds = synth_regression(30, 2, seed=6)
    train, _ = split_standardize(ds, seed=6)
    leaked = sample_leaked(train, 1.0, seed=0)
    assert len(leaked.indices) == train.n
    assert len(set(leaked.indices.tolist())) == train.n


def test_leaked_minimum_one():
    ds = synth_regression(20, 2, seed=7)
    train, _ = split_standardize(ds, seed=7)
    leaked = sample_leaked(train, 0.001, seed=0)
    assert len(leaked.indices) == 1


def test_leaked_deterministic_and_exact_labels():
    ds = synth_regression(200, 3, seed=8)
    train, _ = split_standardize(ds, seed=8)
    a = sample_leaked(train, 0.05, seed=3)
    b = sample_leaked(train, 0.05, seed=3)
    assert np.array_equal(a.indices, b.indices)
    assert np.array_equal(a.labels, train.labels[a.indices])


def test_synth_shapes_and_determinism():
    a = synth_regression(1000, 4, seed=2)
    b = synth_regression(1000, 4, seed=2)
    assert a.features.shape == (1000, 4)
    assert a.labels.shape == (1000, 1)
    assert np.array_equal(a.features, b.features)
    assert np.array_equal(a.labels, b.labels)


def test_synth_linear_target_is_linear():
    ds = synth_regression(300, 3, noise_std=0.0, seed=4, nonlinearity=0.0)
    w, *_ = np.linalg.lstsq(ds.features, ds.labels, rcond=None)
    residual = ds.features @ w - ds.labels
    assert float((residual ** 2).mean()) < 1e-6


def test_synth_validation():
    with pytest.raises(DataError):
        synth_regression(1, 3)
    with pytest.raises(DataError):
        synth_regression(10, 0)
    # a negative noise_std used to mean no noise at all
    for noise_std in (-1.0, float("nan")):
        with pytest.raises(DataError, match=rf"^noise_std must be >= 0, got {noise_std}$"):
            synth_regression(10, 3, noise_std=noise_std)


@pytest.mark.parametrize("text", ["a,y,b\n1,2,3\n4,5,6\n7,8,9\n",
                                  "a,y,b\n1,2,3\n4,5,6\n7,8,1_000\n"],
                         ids=["numpy_parse", "cell_by_cell_parse"])
def test_load_csv_labels_and_features_own_their_data(tmp_path, text):
    ds = load_csv(write(tmp_path, text), label_column="y")
    assert ds.labels.base is None and ds.features.base is None
    assert np.array_equal(ds.labels, [[2], [5], [8]])


def test_split_standardize_equals_the_allocating_transform_bit_for_bit():
    ds = synth_regression(203, 5, seed=8)
    ratio, seed = 0.75, 6
    train, test = split_standardize(ds, ratio=ratio, seed=seed)
    # the split's shuffle, as split_standardize draws it
    perm = np.random.default_rng(np.random.SeedSequence([seed, 0xD5])).permutation(ds.n)
    tr, te = perm[:int(np.floor(ratio * ds.n))], perm[int(np.floor(ratio * ds.n)):]
    f_mean, f_std = ds.features[tr].mean(axis=0), ds.features[tr].std(axis=0)
    l_mean, l_std = float(ds.labels[tr].mean()), float(ds.labels[tr].std())
    for side, rows in ((train, tr), (test, te)):
        want_f = (ds.features[rows] - f_mean) / f_std
        want_l = (ds.labels[rows] - l_mean) / l_std
        assert side.features.tobytes() == want_f.tobytes()
        assert side.labels.tobytes() == want_l.tobytes()
    assert ds.features.tobytes() == synth_regression(203, 5, seed=8).features.tobytes()
