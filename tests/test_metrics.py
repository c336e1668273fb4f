import numpy as np
import pytest

from splitlab.data import split_standardize, synth_regression
from splitlab.metrics import MetricPair, best_of_runs, mean_value_baseline, metric_pair

from oracles import loop_mae_mse


class FakeRun:
    def __init__(self, original_mae, attack_mae, tag):
        self.original_train = MetricPair(original_mae, original_mae ** 2 + 0.1)
        self.attack_train = MetricPair(attack_mae, attack_mae ** 2 + 0.1)
        self.tag = tag


def test_metric_pair_identical_inputs():
    x = np.random.default_rng(0).normal(size=(10, 1))
    assert metric_pair(x, x) == MetricPair(0.0, 0.0)


def test_metric_pair_examples():
    exact = metric_pair(np.array([[1.0], [2.0]]), np.array([[1.0], [2.0]]))
    assert (exact.mae, exact.mse) == (0.0, 0.0)
    off = metric_pair(np.array([[0.0], [0.0]]), np.array([[1.0], [-1.0]]))
    assert (off.mae, off.mse) == (1.0, 1.0)
    rng = np.random.default_rng(4)
    a, b = rng.normal(size=(30, 1)), rng.normal(size=(30, 1))
    got = metric_pair(a, b)
    mae, mse = loop_mae_mse(a, b)
    assert abs(got.mae - mae) < 1e-12 and abs(got.mse - mse) < 1e-12


def test_metric_pair_validation():
    with pytest.raises(ValueError):
        metric_pair(np.ones((2, 1)), np.ones((3, 1)))
    with pytest.raises(ValueError):
        MetricPair(-0.1, 0.0)


def test_jensen_inequality_holds():
    rng = np.random.default_rng(1)
    for _ in range(50):
        pair = metric_pair(rng.normal(size=(20, 1)), rng.normal(size=(20, 1)))
        assert pair.mae ** 2 <= pair.mse + 1e-12


def test_mean_baseline_symmetric_pair():
    pair = mean_value_baseline(np.array([[-1.0], [1.0]]), np.array([[-1.0], [1.0]]))
    assert pair == MetricPair(1.0, 1.0)


def test_mean_baseline_on_standardized_labels_is_unit_mse():
    ds = synth_regression(300, 3, seed=2)
    train, _ = split_standardize(ds, seed=2)
    pair = mean_value_baseline(train.labels, train.labels)
    assert abs(pair.mse - 1.0) < 1e-9


def test_mean_baseline_empty_input():
    with pytest.raises(ValueError):
        mean_value_baseline(np.zeros((0, 1)), np.ones((2, 1)))


def test_best_of_runs_single():
    run = FakeRun(0.5, 0.5, "only")
    assert best_of_runs([run], "original_mae") is run


def test_best_of_runs_picks_minimum():
    runs = [FakeRun(0.3, 0.9, "a"), FakeRun(0.2, 0.8, "b"), FakeRun(0.4, 0.7, "c")]
    assert best_of_runs(runs, "original_mae").tag == "b"
    assert best_of_runs(runs, "attack_mae").tag == "c"


def test_best_of_runs_tie_goes_to_earliest():
    runs = [FakeRun(0.2, 0.5, "first"), FakeRun(0.2, 0.5, "second")]
    assert best_of_runs(runs, "original_mae").tag == "first"


def test_best_of_runs_validation():
    with pytest.raises(ValueError):
        best_of_runs([], "original_mae")
    with pytest.raises(ValueError):
        best_of_runs([FakeRun(0.1, 0.1, "x")], "test_mae")
