import csv
import json
from dataclasses import replace

import numpy as np
import pytest

from splitlab.harness import (
    ExperimentConfig,
    HarnessError,
    emit_results,
    result_rows,
    run_experiment,
    sweep_defense,
    sweep_extension_dims,
)


def tiny_config(**overrides):
    """A config small enough for unit tests (seconds, not minutes)."""
    base = dict(
        synth_n=160,
        synth_d=4,
        cut_dim=4,
        bottom_hidden=(),
        epochs=4,
        batch_size=32,
        attack_epochs=2,
        attack_window=4,
        leak_fraction=0.05,
        seed=0,
    )
    base.update(overrides)
    return ExperimentConfig(**base)


@pytest.fixture(scope="module")
def tiny_result():
    return run_experiment(tiny_config())


def test_config_dict_roundtrip():
    cfg = tiny_config(defense={"name": "label_noise", "scale": 0.5},
                      repeats=3, dataset_name="demo")
    assert ExperimentConfig.from_dict(cfg.to_dict()) == cfg


def test_config_rejects_bad_repeats():
    with pytest.raises(HarnessError):
        tiny_config(repeats=0)


def test_config_rejects_bad_readout_before_training(monkeypatch):
    def no_training(*args, **kwargs):
        raise AssertionError("training started")

    monkeypatch.setattr("splitlab.harness.train_split", no_training)
    monkeypatch.setattr("splitlab.harness.train_lanes", no_training)
    with pytest.raises(HarnessError, match="attack_readout"):
        tiny_config(attack_readout="bogus")
    with pytest.raises(HarnessError, match="attack_readout"):
        ExperimentConfig.from_dict({"attack": {"readout": "bogus"}})


def test_run_has_all_metric_blocks(tiny_result):
    run = tiny_result.runs[0]
    for pair in (run.original_train, run.original_test, run.attack_train,
                 run.attack_test, tiny_result.mp_train, tiny_result.mp_test):
        assert pair.mae >= 0 and pair.mse >= 0
        assert pair.mae ** 2 <= pair.mse + 1e-12


def test_repeat_seeds_are_derived_and_contain_base_run(tiny_result):
    triple = run_experiment(tiny_config(repeats=3))
    assert [r.seed for r in triple.runs] == [0, 1, 2]
    base_run = tiny_result.runs[0]
    match = [r for r in triple.runs if r.seed == base_run.seed]
    assert len(match) == 1
    assert match[0].original_train == base_run.original_train
    assert match[0].attack_train == base_run.attack_train


def test_best_and_worst_selection():
    res = run_experiment(tiny_config(repeats=3))
    originals = [r.original_train.mae for r in res.runs]
    attacks = [r.attack_train.mae for r in res.runs]
    assert res.best_original.original_train.mae == min(originals)
    assert res.best_attack.attack_train.mae == min(attacks)
    assert res.worst_attack.attack_train.mae == max(attacks)


def test_noise_scale_zero_equals_no_defense(tiny_result):
    noise = run_experiment(tiny_config(defense={"name": "label_noise", "scale": 0}))
    assert noise.runs[0].original_train == tiny_result.runs[0].original_train
    assert noise.runs[0].attack_train == tiny_result.runs[0].attack_train


def test_compression_rate_one_equals_no_defense(tiny_result):
    full = run_experiment(tiny_config(
        defense={"name": "gradient_compression", "keep_rate": 1.0}))
    assert full.runs[0].original_train == tiny_result.runs[0].original_train
    assert full.runs[0].attack_train == tiny_result.runs[0].attack_train


def test_degenerate_extension_equals_no_defense(tiny_result):
    # width 1 with the label at slot 0 is exactly the undefended label path
    ext = run_experiment(tiny_config(
        defense={"name": "random_extension", "dims": 1, "label_index": 0}))
    assert ext.runs[0].original_train == tiny_result.runs[0].original_train
    assert ext.runs[0].attack_train == tiny_result.runs[0].attack_train


def test_sweep_defense_rows(tiny_result):
    results = sweep_defense(tiny_config(), "label_noise", "scale", [0.0, 0.5])
    assert len(results) == 2
    assert results[0].runs[0].original_train == tiny_result.runs[0].original_train
    for res in results:
        for row in result_rows(res):
            assert row["mae"] ** 2 <= row["mse"] + 1e-12


def test_sweep_defense_empty_grid():
    with pytest.raises(HarnessError):
        sweep_defense(tiny_config(), "label_noise", "scale", [])


def test_sweep_extension_dims_covers_grid():
    results = sweep_extension_dims(tiny_config(), [1, 2])
    labels = [(r.config.defense["name"], r.config.defense["dims"]) for r in results]
    assert labels == [("random_extension", 1), ("random_extension", 2),
                      ("adaptive_extension", 1), ("adaptive_extension", 2)]


def test_emit_csv_roundtrip(tmp_path, tiny_result):
    path = tmp_path / "out.csv"
    emit_results([tiny_result], "csv", path)
    with open(path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 6  # train/test x original/attack/baseline
    expected = result_rows(tiny_result)
    for got, want in zip(rows, expected):
        assert float(got["mae"]) == want["mae"]
        assert float(got["mse"]) == want["mse"]
        assert got["task"] == want["task"]


def test_emit_json(tmp_path, tiny_result):
    path = tmp_path / "out.json"
    emit_results([tiny_result], "json", path)
    rows = json.loads(path.read_text())
    assert {r["task"] for r in rows} == {"original", "attack", "baseline"}


def test_emit_empty_results_is_header_only(tmp_path):
    path = tmp_path / "empty.csv"
    emit_results([], "csv", path)
    lines = path.read_text().strip().splitlines()
    assert len(lines) == 1
    assert lines[0].startswith("dataset,defense,params,split,task,mae,mse")


def test_emit_rejects_unknown_format(tmp_path, tiny_result):
    with pytest.raises(HarnessError):
        emit_results([tiny_result], "xml", tmp_path / "out.xml")


def test_identical_configs_give_byte_identical_files(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    emit_results([run_experiment(tiny_config())], "csv", a)
    emit_results([run_experiment(tiny_config())], "csv", b)
    assert a.read_bytes() == b.read_bytes()


def test_batch_size_validation():
    with pytest.raises(HarnessError):
        run_experiment(tiny_config(batch_size=10_000))


def test_run_context_in_errors():
    bad = tiny_config(cut_dim=0)
    with pytest.raises((HarnessError, ValueError)):
        run_experiment(bad)


def no_training(*args, **kwargs):
    raise AssertionError("training started")


def test_config_rejects_bad_defense_before_training(monkeypatch):
    monkeypatch.setattr("splitlab.harness.train_lanes", no_training)
    for spec in ({"name": "bogus"}, {"name": "label_noise", "scale": -1},
                 {"name": "gradient_compression", "keep_rate": 0},
                 {"name": "random_extension", "dims": 4, "label_index": 7},
                 {"name": "none", "scale": 1}, "none"):
        with pytest.raises(HarnessError, match="bad defense"):
            tiny_config(defense=spec)
    with pytest.raises(HarnessError, match="bad defense"):
        ExperimentConfig.from_dict({"defense": {"name": "label_noise", "scale": "x"}})


def test_sweeps_reject_a_bad_grid_value_before_any_run(monkeypatch):
    monkeypatch.setattr("splitlab.harness.train_lanes", no_training)
    with pytest.raises(HarnessError, match="scale"):
        sweep_defense(tiny_config(), "label_noise", "scale", [0.1, 0.5, -1.0])
    with pytest.raises(HarnessError, match="keep_rate"):
        sweep_defense(tiny_config(), "gradient_compression", "keep_rate", [0.5, 2.0])
    with pytest.raises(HarnessError, match="bogus"):
        sweep_extension_dims(tiny_config(), [2, 3], ("random_extension", "bogus"))


@pytest.mark.parametrize("variant,param,values,overrides", [
    # one lane per point: the sweep stacks two runs that alone are plain 2-D
    ("gradient_noise", "scale", [0.01, 0.1], dict(repeats=1)),
    ("label_noise", "scale", [0.1, 0.5], dict(repeats=2, top_hidden=(3,))),
])
def test_sweep_emits_the_bytes_of_its_points_run_alone(tmp_path, variant, param, values,
                                                       overrides):
    cfg = tiny_config(**overrides)
    swept, alone = tmp_path / "swept.json", tmp_path / "alone.json"
    emit_results(sweep_defense(cfg, variant, param, values), "json", swept)
    emit_results([run_experiment(replace(cfg, defense={"name": variant, param: v}))
                  for v in values], "json", alone)
    assert swept.read_bytes() == alone.read_bytes()


def test_failure_names_the_point_run_and_seed():
    # a label-noise scale of 1e300 overflows the loss of that point's lanes
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(HarnessError, match=r"label_noise \(distribution=laplace;"
                                               r"scale=1e\+300\) run 0 \(seed 0\): "
                                               r"epoch 0, batch 0: .*'mse' \(lane 2\)"):
            sweep_defense(tiny_config(repeats=2), "label_noise", "scale", [0.1, 1e300])


def test_runtime_is_shared_over_a_group():
    res = run_experiment(tiny_config(repeats=2))
    first, second = res.runs
    assert first.runtime_ms == second.runtime_ms > 0
    assert res.runtime_ms >= first.runtime_ms + second.runtime_ms
