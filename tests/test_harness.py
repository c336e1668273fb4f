import csv
import json
import re
from dataclasses import fields, replace

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


def test_a_batch_larger_than_the_train_split_is_refused_before_training(monkeypatch):
    # the same words as the protocol's own refusal
    def no_training(*args, **kwargs):
        raise AssertionError("training started")

    monkeypatch.setattr("splitlab.harness.train_lanes", no_training)
    cfg = ExperimentConfig(synth_n=100, batch_size=500, epochs=1, attack_epochs=1)
    with pytest.raises(HarnessError) as caught:
        run_experiment(cfg)
    assert str(caught.value) == "batch size 500 exceeds the 80 training samples"


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
    # a config no run can use (cut_dim=0) is refused before any run, so a
    # run that fails here diverges
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(HarnessError, match=r"^none run 0 \(seed 0\): epoch 0, batch 1: "
                                               r"non-finite values produced by 'matmul'$"):
            run_experiment(tiny_config(lr=1e200))


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



@pytest.mark.parametrize("spec,param", [
    ({"name": "random_extension", "dims": 2.7}, "dims"),
    ({"name": "adaptive_extension", "dims": True}, "dims"),
    ({"name": "random_extension", "dims": 4, "label_index": 1.5}, "label_index"),
    ({"name": "label_noise", "scale": float("nan")}, "scale"),
    ({"name": "gradient_noise", "scale": float("inf")}, "scale"),
    ({"name": "random_extension", "noise_std": float("nan")}, "noise_std"),
])
def test_config_rejects_a_mistyped_defense_parameter_naming_it(monkeypatch, spec, param):
    monkeypatch.setattr("splitlab.harness.train_lanes", no_training)
    with pytest.raises(HarnessError, match=rf"^bad defense .*: {param} must be"):
        tiny_config(defense=spec)


def test_config_refuses_noise_std_on_the_adaptive_extension(monkeypatch):
    monkeypatch.setattr("splitlab.harness.train_lanes", no_training)
    with pytest.raises(HarnessError, match=r"^bad defense .*: unexpected defense "
                                           r"parameters \['noise_std'\]$"):
        tiny_config(defense={"name": "adaptive_extension", "noise_std": float("nan")})


def test_sweep_extension_dims_rejects_a_width_that_is_not_whole(monkeypatch):
    monkeypatch.setattr("splitlab.harness.train_lanes", no_training)
    for width in (2.7, True):
        with pytest.raises(HarnessError, match=rf"dims must be a whole number, got {width}"):
            sweep_extension_dims(tiny_config(), [2, width])

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


def record_groups(monkeypatch):
    """Wrap the harness's train_lanes; returns the list to which each call
    appends its lanes' (defense name, top-model width) pairs."""
    from splitlab import harness

    groups, train_lanes = [], harness.train_lanes

    def recording(sessions, *args, **kwargs):
        groups.append([(s.defense.name, s.defense.output_dim) for s in sessions])
        return train_lanes(sessions, *args, **kwargs)

    monkeypatch.setattr(harness, "train_lanes", recording)
    return groups


def test_the_attack_replays_records_without_activations(monkeypatch):
    # each group is also trained from copies of its sessions through sinks
    # that keep the whole records
    from splitlab import harness
    from splitlab.protocol import SplitSession, Transcript

    train_lanes, attack_lanes = harness.train_lanes, harness.attack_lanes
    whole, replayed = [], []

    def training_twice(sessions, train, **kwargs):
        copies = [SplitSession(s.bottom.copy(), s.top.copy(), s.defense, lr=s.lr,
                               batch_size=s.batch_size, epochs=s.epochs, seed=s.seed)
                  for s in sessions]
        kept = [Transcript() for _ in copies]
        train_lanes(copies, train, [t.records.append for t in kept],
                    keep_epochs=kwargs["keep_epochs"])
        whole.extend(kept)
        return train_lanes(sessions, train, **kwargs)

    def watching(lanes, *args, **kwargs):
        replayed.extend(lane.transcript for lane in lanes)
        return attack_lanes(lanes, *args, **kwargs)

    monkeypatch.setattr(harness, "train_lanes", training_twice)
    monkeypatch.setattr(harness, "attack_lanes", watching)
    run_experiment(tiny_config(repeats=2, attack_window=2))
    assert len(replayed) == len(whole) == 2
    for handed, kept in zip(replayed, whole):
        assert len(handed) == len(kept) == 8
        for a, b in zip(handed.records, kept.records):
            assert a.activations is None
            assert a.epoch == b.epoch
            assert a.indices.tobytes() == b.indices.tobytes()
            assert a.gradient.tobytes() == b.gradient.tobytes()


def test_an_extension_sweep_trains_one_group_per_width(monkeypatch, tmp_path):
    # random and adaptive lanes of one width train and are attacked together,
    # and each point's rows are the bytes of that point run alone
    cfg = tiny_config(repeats=2)
    groups = record_groups(monkeypatch)
    swept = sweep_extension_dims(cfg, [2, 8])
    assert groups == [[("random_extension", w)] * 2 + [("adaptive_extension", w)] * 2
                      for w in (2, 8)]
    alone = [run_experiment(replace(cfg, defense=r.config.defense)) for r in swept]
    emit_results(swept, "json", tmp_path / "swept.json")
    emit_results(alone, "json", tmp_path / "alone.json")
    assert (tmp_path / "swept.json").read_bytes() == (tmp_path / "alone.json").read_bytes()


def test_points_of_one_width_train_as_one_group_whatever_their_defense(monkeypatch,
                                                                       tmp_path):
    from splitlab import harness

    cfg = tiny_config(repeats=2)
    configs = [replace(cfg, defense=d) for d in (
        {"name": "none"}, {"name": "label_noise", "scale": 0.5},
        {"name": "gradient_noise", "scale": 0.05},
        {"name": "gradient_compression", "keep_rate": 0.5})]
    groups = record_groups(monkeypatch)
    together = harness._run_points(configs)
    assert [len(group) for group in groups] == [8]
    emit_results(together, "json", tmp_path / "together.json")
    emit_results([run_experiment(c) for c in configs], "json", tmp_path / "alone.json")
    assert (tmp_path / "together.json").read_bytes() == (tmp_path / "alone.json").read_bytes()


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


@pytest.mark.parametrize("payload,key", [
    ({"training": {"epochs": 1.5}}, "training.epochs"),
    ({"training": {"batch_size": 32.5}}, "training.batch_size"),
    ({"training": {"seed": 0.5}}, "training.seed"),
    ({"attack": {"epochs": 1.5}}, "attack.epochs"),
    ({"attack": {"window": 2.5}}, "attack.window"),
    ({"dataset": {"n": 160.5}}, "dataset.n"),
    ({"dataset": {"d": 4.25}}, "dataset.d"),
    ({"model": {"cut_dim": 4.5}}, "model.cut_dim"),
    ({"model": {"bottom_hidden": [16, 8.5]}}, "model.bottom_hidden"),
    ({"model": {"top_hidden": [0.5]}}, "model.top_hidden"),
    ({"repeats": 1.5}, "repeats"),
    ({"training": {"epochs": True}}, "training.epochs"),
    ({"attack": {"epochs": "two"}}, "attack.epochs"),
])
def test_config_rejects_a_fractional_count_naming_its_key(payload, key):
    with pytest.raises(HarnessError, match=rf"^bad configuration: {key} must be a whole number"):
        ExperimentConfig.from_dict(payload)


@pytest.mark.parametrize("override,message", [
    (dict(attacker_knows_extension="false"), "attack.knows_extension must be true or false"),
    (dict(epochs=2.5), "training.epochs must be a whole number"),
    (dict(bottom_hidden=(16.5,)), "model.bottom_hidden must be a whole number"),
    (dict(dataset_path=5), "dataset.path must be a string"),
    (dict(lr=float("nan")), "training.lr must be a finite number"),
])
def test_config_built_in_code_is_checked_like_a_file(override, message):
    with pytest.raises(HarnessError, match=rf"^bad configuration: {re.escape(message)}"):
        ExperimentConfig(**override)


@pytest.mark.parametrize("override,key,value", [
    (dict(lr=-1.0, attack_lr=0.0), "training.lr", -1.0),
    (dict(lr=0), "training.lr", 0.0),
    (dict(attack_lr=0.0), "attack.lr", 0.0),
    (dict(attack_lr=-3), "attack.lr", -3.0),
])
def test_config_refuses_a_learning_rate_that_is_not_positive(override, key, value):
    message = f"bad configuration: {key} must be > 0, got {value}"
    with pytest.raises(HarnessError, match=rf"^{re.escape(message)}$"):
        ExperimentConfig(**override)
    section, _, leaf = key.partition(".")
    with pytest.raises(HarnessError, match=rf"^{re.escape(message)}$"):
        ExperimentConfig.from_dict({section: {leaf: value}})


@pytest.mark.parametrize("override,key,bound,value", [
    (dict(attack_window=0), "attack.window", 1, 0),
    (dict(attack_epochs=0), "attack.epochs", 1, 0),
    (dict(attack_alpha=-1), "attack.alpha", 0, -1.0),
    (dict(epochs=0), "training.epochs", 1, 0),
    (dict(batch_size=0), "training.batch_size", 1, 0),
    (dict(seed=-1), "training.seed", 0, -1),
    (dict(cut_dim=0), "model.cut_dim", 1, 0),
    (dict(bottom_hidden=(16, 0)), "model.bottom_hidden", 1, 0),
    (dict(top_hidden=(0,)), "model.top_hidden", 1, 0),
    (dict(synth_noise_std=-1), "dataset.noise_std", 0, -1.0),
    (dict(synth_n=1), "dataset.n", 2, 1),
    (dict(synth_d=0), "dataset.d", 1, 0),
    (dict(repeats=0), "repeats", 1, 0),
])
def test_config_refuses_a_value_below_its_key_s_lower_bound(override, key, bound, value):
    message = f"bad configuration: {key} must be >= {bound}, got {value}"
    with pytest.raises(HarnessError, match=rf"^{re.escape(message)}$"):
        ExperimentConfig(**override)


def test_config_built_in_code_stores_parsed_values():
    cfg = ExperimentConfig(dataset_path=None, bottom_hidden=[16, 8.0], top_hidden=(4,),
                           epochs=np.int64(3), lr=1)
    assert (cfg.dataset_path, cfg.bottom_hidden, cfg.top_hidden) == (None, (16, 8), (4,))
    assert (type(cfg.epochs), type(cfg.lr)) == (int, float)
    assert replace(cfg, seed=2).bottom_hidden == (16, 8)


def test_config_accepts_whole_numbers_written_as_floats_or_strings():
    cfg = ExperimentConfig.from_dict({"training": {"epochs": 3.0, "seed": "2"},
                                      "model": {"bottom_hidden": [16.0]}})
    assert (cfg.epochs, cfg.seed, cfg.bottom_hidden) == (3, 2, (16,))
    assert type(cfg.epochs) is int


@pytest.mark.parametrize("payload,message", [
    ({"model": 3}, "'model' must be an object, got 3"),
    ({"defense": "none"}, "'defense' must be an object, got 'none'"),
    ([1, 2], "expected an object, got [1, 2]"),
    ({"model": {"bottom_hidden": 16}}, "model.bottom_hidden must be a list, got 16"),
    ({"training": {"lr": "fast"}}, "training.lr must be a finite number, got 'fast'"),
    ({"dataset": {"kind": "csv"}}, "a csv dataset needs dataset.path"),
])
def test_config_rejects_a_malformed_entry_naming_its_key(payload, message):
    with pytest.raises(HarnessError) as info:
        ExperimentConfig.from_dict(payload)
    assert str(info.value) == f"bad configuration: {message}"


def test_config_to_dict_format():
    # the `config` entry of a run's manifest, key order included
    synth = {
        "dataset": {"kind": "synth", "n": 160, "d": 4, "noise_std": 0.1},
        "split_ratio": 0.8,
        "model": {"bottom_hidden": [], "top_hidden": [], "cut_dim": 4, "activation": "relu"},
        "training": {"lr": 0.01, "epochs": 4, "batch_size": 32, "seed": 0},
        "defense": {"name": "none"},
        "attack": {"alpha": 0.05, "lr": 0.01, "epochs": 2, "window": 4, "leak_fraction": 0.05,
                   "knows_extension": True, "readout": "secret_column"},
        "repeats": 1,
    }
    assert json.dumps(tiny_config().to_dict()) == json.dumps(synth)
    cfg = ExperimentConfig(dataset_path="houses.csv", label_column="price", csv_header=False,
                           dataset_name="houses", defense={"name": "random_extension", "dims": 3})
    csv_entry = {
        "dataset": {"kind": "csv", "path": "houses.csv", "label_column": "price",
                    "header": False, "name": "houses"},
        "split_ratio": 0.8,
        "model": {"bottom_hidden": [16], "top_hidden": [], "cut_dim": 8, "activation": "relu"},
        "training": {"lr": 0.01, "epochs": 100, "batch_size": 64, "seed": 0},
        "defense": {"name": "random_extension", "dims": 3},
        "attack": {"alpha": 0.05, "lr": 0.01, "epochs": 25, "window": 100, "leak_fraction": 0.01,
                   "knows_extension": True, "readout": "secret_column"},
        "repeats": 1,
    }
    assert json.dumps(cfg.to_dict()) == json.dumps(csv_entry)


_OTHER_KIND_FIELDS = {"synth": {"dataset_path", "label_column", "csv_header"},
                      "csv": {"synth_n", "synth_d", "synth_noise_std"}}


@pytest.mark.parametrize("kind,source", [
    ("synth", dict(synth_n=300, synth_d=5, synth_noise_std=0.3)),
    ("csv", dict(dataset_path="houses.csv", label_column="price", csv_header=False)),
    ("csv", dict(dataset_path="houses.csv", label_column=3, csv_header=False)),
])
def test_config_roundtrip_over_every_field(kind, source):
    cfg = ExperimentConfig(
        **source, dataset_name="demo", split_ratio=0.7, bottom_hidden=(5, 3), top_hidden=(2,),
        cut_dim=3, activation="tanh", lr=0.02, epochs=7, batch_size=16, seed=9,
        defense={"name": "label_noise", "scale": 0.5}, attack_alpha=0.1, attack_lr=0.03,
        attack_epochs=3, attack_window=2, leak_fraction=0.2, attacker_knows_extension=False,
        attack_readout="leak_selected", repeats=2)
    default = ExperimentConfig()
    changed = {f.name for f in fields(cfg) if getattr(cfg, f.name) != getattr(default, f.name)}
    assert changed == {f.name for f in fields(cfg)} - _OTHER_KIND_FIELDS[kind]
    assert ExperimentConfig.from_dict(json.loads(json.dumps(cfg.to_dict()))) == cfg


@pytest.mark.parametrize("payload,key", [
    ({"attack": {"knows_extension": "false"}}, "attack.knows_extension"),
    ({"dataset": {"kind": "csv", "path": "x.csv", "header": "false"}}, "dataset.header"),
    ({"training": {"lr": float("nan")}}, "training.lr"),
    ({"attack": {"alpha": float("inf")}}, "attack.alpha"),
    ({"dataset": {"noise_std": float("nan")}}, "dataset.noise_std"),
    ({"training": {"lrr": 0.1}}, "training.lrr"),
    ({"trainng": {"lr": 0.1}}, "trainng"),
    ({"training.lr": 0.1}, "training.lr"),
    ({"dataset": {"kind": "cvs", "path": "x.csv"}}, "dataset.kind"),
    ({"dataset": {"path": "x.csv"}}, "dataset.path"),
    ({"dataset": {"kind": "csv", "path": "x.csv", "n": 100}}, "dataset.n"),
    ({"dataset": {"kind": "csv", "path": 5}}, "dataset.path"),
    ({"dataset": {"kind": "csv", "path": "x.csv", "label_column": 1.5}}, "dataset.label_column"),
    ({"dataset": {"name": 7}}, "dataset.name"),
    ({"model": {"activation": 3}}, "model.activation"),
    ({"split_ratio": 1.5}, "split_ratio"),
    ({"split_ratio": 0}, "split_ratio"),
    ({"model": {"activation": "sigmoid"}}, "model.activation"),
    ({"attack": {"leak_fraction": 0}}, "attack.leak_fraction"),
    ({"attack": {"leak_fraction": 1.5}}, "attack.leak_fraction"),
])
def test_config_refuses_a_misread_entry_naming_its_key(monkeypatch, payload, key):
    monkeypatch.setattr("splitlab.harness.train_lanes", no_training)
    with pytest.raises(HarnessError, match=rf"^bad configuration: {re.escape(key)} ") as info:
        run_experiment(ExperimentConfig.from_dict(payload))
    assert "\n" not in str(info.value)


def test_config_range_checks_hold_for_a_config_built_in_code():
    with pytest.raises(HarnessError, match="^bad configuration: model.activation"):
        tiny_config(activation="sigmoid")
    with pytest.raises(HarnessError, match="^bad configuration: split_ratio"):
        tiny_config(split_ratio=float("nan"))
