import numpy as np
import pytest

from splitlab.data import split_standardize, synth_regression
from splitlab.defense import NoDefense
from splitlab.harness import ExperimentConfig, ExperimentResult, RunOutcome
from splitlab.metrics import MetricPair, mean_value_baseline, metric_pair

from oracles import loop_mae_mse


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


def result_of_runs(*maes):
    """An ExperimentResult whose run i (seed i) has the original and attack
    train MAEs maes[i]."""
    def pair(mae):
        return MetricPair(mae, mae ** 2 + 0.1)

    runs = tuple(RunOutcome(seed=i, attack_seed=i, original_train=pair(original),
                            original_test=pair(original), attack_train=pair(attack),
                            attack_test=pair(attack), runtime_ms=0.0)
                 for i, (original, attack) in enumerate(maes))
    return ExperimentResult(config=ExperimentConfig(), dataset_name="", defense=NoDefense(),
                            runs=runs, mp_train=pair(1.0), mp_test=pair(1.0), runtime_ms=0.0)


def test_best_of_runs_single():
    single = result_of_runs((0.5, 0.5))
    assert single.best_original is single.best_attack is single.runs[0]


def test_best_of_runs_picks_minimum():
    result = result_of_runs((0.3, 0.9), (0.2, 0.8), (0.4, 0.7))
    assert result.best_original.seed == 1
    assert result.best_attack.seed == 2


def test_best_of_runs_tie_goes_to_earliest():
    result = result_of_runs((0.2, 0.5), (0.2, 0.5))
    assert result.best_original.seed == result.best_attack.seed == 0


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

