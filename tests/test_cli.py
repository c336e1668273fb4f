import csv
import json
import re
import struct

import numpy as np
import pytest

from splitlab.cli import main
from splitlab.protocol import Transcript, TranscriptRecord


def tiny_config_file(tmp_path, **extra):
    payload = {
        "dataset": {"kind": "synth", "n": 160, "d": 4},
        "model": {"cut_dim": 4, "bottom_hidden": []},
        "training": {"epochs": 4, "batch_size": 32, "seed": 0},
        "attack": {"epochs": 2, "window": 4, "leak_fraction": 0.05},
    }
    payload.update(extra)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(payload))
    return str(path)


def test_experiment_writes_csv(tmp_path, capsys):
    out = tmp_path / "res.csv"
    code = main(["experiment", "--config", tiny_config_file(tmp_path),
                 "--out", str(out), "--format", "csv"])
    assert code == 0
    with open(out, newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 6
    assert {r["task"] for r in rows} == {"original", "attack", "baseline"}
    assert "wrote" in capsys.readouterr().out


def test_experiment_deterministic_output_files(tmp_path):
    cfg = tiny_config_file(tmp_path)
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert main(["experiment", "--config", cfg, "--out", str(a)]) == 0
    assert main(["experiment", "--config", cfg, "--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_train_then_attack_roundtrip(tmp_path, capsys):
    run_dir = tmp_path / "run"
    code = main(["train", "--config", tiny_config_file(tmp_path),
                 "--out", str(run_dir)])
    assert code == 0
    assert (run_dir / "manifest.json").exists()
    assert (run_dir / "transcript.bin").exists()
    assert (run_dir / "bottom.json").exists()
    assert (run_dir / "top.json").exists()

    summary_path = tmp_path / "attack.json"
    code = main(["attack", "--run", str(run_dir), "--out", str(summary_path)])
    assert code == 0
    summary = json.loads(summary_path.read_text())
    assert set(summary) >= {"train", "test", "label_column", "loss_trace",
                            "inferred_labels"}
    assert summary["train"]["mae"] >= 0
    assert len(summary["inferred_labels"]) == 128  # floor(0.8 * 160)


def test_attack_cli_matches_experiment_metrics(tmp_path):
    # the decomposed train -> attack path must reproduce the end-to-end number
    cfg = tiny_config_file(tmp_path)
    run_dir = tmp_path / "run"
    main(["train", "--config", cfg, "--out", str(run_dir)])
    summary_path = tmp_path / "attack.json"
    main(["attack", "--run", str(run_dir), "--out", str(summary_path)])
    summary = json.loads(summary_path.read_text())

    out = tmp_path / "res.json"
    main(["experiment", "--config", cfg, "--out", str(out), "--format", "json"])
    rows = json.loads(out.read_text())
    attack_train = next(r for r in rows
                        if r["task"] == "attack" and r["split"] == "train")
    assert attack_train["mae"] == pytest.approx(summary["train"]["mae"], abs=1e-12)


def test_defense_flag_and_params(tmp_path):
    out = tmp_path / "res.csv"
    code = main(["experiment", "--config", tiny_config_file(tmp_path),
                 "--defense", "label-noise", "--param", "scale=0.5",
                 "--out", str(out)])
    assert code == 0
    with open(out, newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert rows[0]["defense"] == "label_noise"
    assert "scale=0.5" in rows[0]["params"]


def test_sweep_defense_cli(tmp_path):
    out = tmp_path / "sweep.csv"
    code = main(["sweep-defense", "--config", tiny_config_file(tmp_path),
                 "--defense", "label_noise", "--param", "scale=0,0.5",
                 "--out", str(out)])
    assert code == 0
    with open(out, newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 12  # 2 grid points x 6 rows


def test_sweep_dims_cli(tmp_path):
    out = tmp_path / "dims.csv"
    code = main(["sweep-dims", "--config", tiny_config_file(tmp_path),
                 "--dims", "1,2", "--out", str(out)])
    assert code == 0
    with open(out, newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 24  # 2 variants x 2 widths x 6 rows


def test_baseline_mp_cli(tmp_path, capsys):
    out = tmp_path / "mp.json"
    code = main(["baseline-mp", "--config", tiny_config_file(tmp_path),
                 "--out", str(out)])
    assert code == 0
    payload = json.loads(out.read_text())
    assert payload["train"]["mse"] == pytest.approx(1.0, abs=1e-9)


def test_seed_flag_changes_results(tmp_path):
    cfg = tiny_config_file(tmp_path)
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    main(["experiment", "--config", cfg, "--seed", "1", "--out", str(a)])
    main(["experiment", "--config", cfg, "--seed", "2", "--out", str(b)])
    assert a.read_bytes() != b.read_bytes()


def test_bad_kv_is_rejected(tmp_path):
    with pytest.raises(SystemExit):
        main(["experiment", "--config", tiny_config_file(tmp_path),
              "--defense", "label_noise", "--param", "scale"])


def test_missing_csv_reports_error(tmp_path, capsys):
    code = main(["baseline-mp", "--dataset", str(tmp_path / "nope.csv")])
    assert code == 1
    assert "error" in capsys.readouterr().err


@pytest.mark.parametrize("text,cells,width", [("a,b,y\n1,2\n3,4\n5,6\n", 2, 3),
                                              ("a,y\n1,2,3\n4,5,6\n7,8,9\n", 3, 2)],
                         ids=["header wider", "header narrower"])
def test_a_header_of_another_width_than_the_rows_is_a_one_line_error(tmp_path, capsys, text,
                                                                      cells, width):
    path = tmp_path / "data.csv"
    path.write_text(text)
    assert main(["baseline-mp", "--dataset", str(path), "--set", "dataset.label_column=y"]) == 1
    err = capsys.readouterr().err
    assert err == f"error: {path}: row 1 has {cells} cells, the header has {width}\n"


def test_a_nan_cell_in_the_dataset_is_a_one_line_error_before_training(tmp_path, monkeypatch,
                                                                       capsys):
    def never(*args, **kwargs):
        raise AssertionError("training started on a dataset with a NaN cell")

    monkeypatch.setattr("splitlab.harness.train_lanes", never)
    rows = np.random.default_rng(3).normal(size=(10, 3)).round(3).astype(str)
    rows[4, 1] = "nan"
    data = tmp_path / "data.csv"
    data.write_text("a,b,y\n" + "".join(",".join(row) + "\n" for row in rows))
    err = one_line_error(capsys, ["experiment", "--dataset", str(data)])
    assert err == f"error: {data}: row 5, column 2: 'nan' is not a finite number\n"


def trained_run(tmp_path):
    run_dir = tmp_path / "run"
    assert main(["train", "--config", tiny_config_file(tmp_path), "--out", str(run_dir)]) == 0
    return run_dir


def test_attack_on_garbage_transcript_is_a_one_line_error(tmp_path, capsys):
    run_dir = trained_run(tmp_path)
    (run_dir / "transcript.bin").write_bytes(b"definitely not a transcript")
    capsys.readouterr()
    assert main(["attack", "--run", str(run_dir)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "transcript.bin" in err


def test_bad_readout_fails_before_training_or_attack(tmp_path, monkeypatch, capsys):
    run_dir = trained_run(tmp_path)
    manifest_path = run_dir / "manifest.json"
    manifest = json.loads(manifest_path.read_text())
    manifest["config"]["attack"]["readout"] = "bogus"
    manifest_path.write_text(json.dumps(manifest))

    def never(*args, **kwargs):
        raise AssertionError("work started despite a bad config")

    monkeypatch.setattr("splitlab.cli.run_attack", never)
    monkeypatch.setattr("splitlab.harness.train_split", never)
    monkeypatch.setattr("splitlab.harness.train_lanes", never)
    capsys.readouterr()
    assert main(["attack", "--run", str(run_dir)]) == 1
    assert "attack_readout" in capsys.readouterr().err
    assert main(["experiment", "--config", tiny_config_file(tmp_path),
                 "--set", "attack.readout=bogus"]) == 1
    assert "attack_readout" in capsys.readouterr().err


@pytest.mark.parametrize("path", [("files",), ("config",), ("defense_resolved",),
                                  ("files", "bottom"), ("files", "transcript")])
def test_attack_on_manifest_missing_a_key_is_a_one_line_error(tmp_path, capsys, path):
    run_dir = trained_run(tmp_path)
    manifest_path = run_dir / "manifest.json"
    manifest = json.loads(manifest_path.read_text())
    node = manifest
    for key in path[:-1]:
        node = node[key]
    del node[path[-1]]
    manifest_path.write_text(json.dumps(manifest))
    capsys.readouterr()
    assert main(["attack", "--run", str(run_dir)]) == 1
    assert capsys.readouterr().err == f"error: {manifest_path}: missing '{path[-1]}'\n"


def test_attack_on_non_json_manifest_is_a_one_line_error(tmp_path, capsys):
    run_dir = trained_run(tmp_path)
    (run_dir / "manifest.json").write_text("{not json")
    capsys.readouterr()
    assert main(["attack", "--run", str(run_dir)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {run_dir / 'manifest.json'}: not JSON") and err.count("\n") == 1


def test_bad_defense_fails_before_training(tmp_path, monkeypatch, capsys):
    def never(*args, **kwargs):
        raise AssertionError("training started despite a bad defense")

    monkeypatch.setattr("splitlab.cli.train_split", never)
    monkeypatch.setattr("splitlab.harness.train_lanes", never)
    for argv in (["train", "--defense", "label_noise", "--param", "scale=-1",
                  "--out", str(tmp_path / "run")],
                 ["sweep-defense", "--defense", "gradient_compression",
                  "--param", "keep_rate=0.5,3"]):
        capsys.readouterr()
        assert main(argv + ["--config", tiny_config_file(tmp_path)]) == 1
        assert "bad defense" in capsys.readouterr().err


def one_line_error(capsys, argv) -> str:
    capsys.readouterr()
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    return err


@pytest.mark.parametrize("command", ["experiment", "train"])
@pytest.mark.parametrize("key", ["training.lr", "attack.lr"])
def test_a_learning_rate_that_is_not_positive_is_a_one_line_error_before_training(
        tmp_path, monkeypatch, capsys, command, key):
    def never(*args, **kwargs):
        raise AssertionError("training started with a learning rate that is not positive")

    monkeypatch.setattr("splitlab.harness.train_lanes", never)
    argv = [command, "--config", tiny_config_file(tmp_path), "--set", f"{key}=-1"]
    if command == "train":
        argv += ["--out", str(tmp_path / "run")]
    err = one_line_error(capsys, argv)
    assert err == f"error: bad configuration: {key} must be > 0, got -1.0\n"
    assert not (tmp_path / "run").exists()


def test_a_config_value_below_its_bound_is_a_one_line_error_before_training(
        tmp_path, monkeypatch, capsys):
    # an attack window of 0 used to train, write the run and fail at attack
    def never(*args, **kwargs):
        raise AssertionError("training started with an attack window of 0")

    monkeypatch.setattr("splitlab.cli.train_split", never)
    err = one_line_error(capsys, ["train", "--config", tiny_config_file(tmp_path),
                                  "--set", "attack.window=0", "--out", str(tmp_path / "run")])
    assert err == "error: bad configuration: attack.window must be >= 1, got 0\n"
    assert not (tmp_path / "run").exists()


def test_config_errors_are_one_line_naming_the_file_key_or_flag(tmp_path, capsys):
    listed = tmp_path / "list.json"
    listed.write_text("[1, 2]")
    err = one_line_error(capsys, ["experiment", "--config", str(listed)])
    assert str(listed) in err and "JSON object" in err

    broken = tmp_path / "broken.json"
    broken.write_text('{"model": {cut_dim: 3}}')
    err = one_line_error(capsys, ["experiment", "--config", str(broken)])
    assert err.startswith(f"error: {broken}: not JSON: Expecting property name")

    err = one_line_error(capsys, ["experiment", "--set", "model=3",
                                  "--set", "model.cut_dim=8"])
    assert err == "error: --set model.cut_dim=8: 'model' is 3, not a section\n"
    err = one_line_error(capsys, ["experiment", "--set", "model.cut_dim=8",
                                  "--set", "model=3"])
    assert err == "error: bad configuration: 'model' must be an object, got 3\n"

    err = one_line_error(capsys, ["sweep-dims", "--config", tiny_config_file(tmp_path),
                                  "--dims", "2,x"])
    assert "--dims" in err and "'2,x'" in err


def test_fractional_count_fails_before_training(tmp_path, monkeypatch, capsys):
    def never(*args, **kwargs):
        raise AssertionError("training started despite a bad config")

    monkeypatch.setattr("splitlab.cli.train_split", never)
    monkeypatch.setattr("splitlab.harness.train_lanes", never)
    for command in (["experiment"], ["train", "--out", str(tmp_path / "run")]):
        err = one_line_error(capsys, command + ["--config", tiny_config_file(tmp_path),
                                                "--set", "attack.epochs=1.5"])
        assert err == "error: bad configuration: attack.epochs must be a whole number, got 1.5\n"


def test_attack_on_manifest_with_a_fractional_count_names_the_manifest(tmp_path, capsys):
    run_dir = trained_run(tmp_path)
    manifest_path = run_dir / "manifest.json"
    manifest = json.loads(manifest_path.read_text())
    manifest["config"]["attack"]["epochs"] = 1.5
    manifest_path.write_text(json.dumps(manifest))
    err = one_line_error(capsys, ["attack", "--run", str(run_dir)])
    assert err == (f"error: {manifest_path}: bad configuration: "
                   "attack.epochs must be a whole number, got 1.5\n")


@pytest.mark.parametrize("resolved,reason", [
    ({"name": "random_extension", "dims": 4, "label_index": 9, "noise_std": 1.0},
     "label_index 9 out of range for dims 4"),
    ("none", "a defense is an object"),
    ({"name": "random_extension", "dims": 2.5, "label_index": 0, "noise_std": 1.0},
     "dims must be a whole number, got 2.5"),
])
def test_attack_on_manifest_with_a_bad_defense_names_the_manifest(tmp_path, monkeypatch,
                                                                   capsys, resolved, reason):
    run_dir = trained_run(tmp_path)
    manifest_path = run_dir / "manifest.json"
    manifest = json.loads(manifest_path.read_text())
    manifest["defense_resolved"] = resolved
    manifest_path.write_text(json.dumps(manifest))

    def never(*args, **kwargs):
        raise AssertionError("attack started despite a bad defense")

    monkeypatch.setattr("splitlab.cli.run_attack", never)
    err = one_line_error(capsys, ["attack", "--run", str(run_dir)])
    assert err.startswith(f"error: {manifest_path}: bad defense ")
    assert reason in err


def test_unknown_set_key_is_a_one_line_error_naming_it(tmp_path, capsys):
    err = one_line_error(capsys, ["experiment", "--config", tiny_config_file(tmp_path),
                                  "--set", "training.lrr=5"])
    assert err.startswith("error: bad configuration: training.lrr ")


def test_dataset_synth_over_a_csv_config_drops_the_csv_keys(tmp_path):
    config = tiny_config_file(tmp_path, dataset={"kind": "csv", "path": "nope.csv",
                                                 "label_column": 0, "header": False,
                                                 "name": "demo"})
    run_dir = tmp_path / "run"
    assert main(["train", "--config", config, "--dataset", "synth", "--set", "dataset.n=160",
                 "--out", str(run_dir)]) == 0
    manifest = json.loads((run_dir / "manifest.json").read_text())
    assert manifest["config"]["dataset"] == {"kind": "synth", "n": 160, "d": 8,
                                             "noise_std": 0.1, "name": "demo"}


@pytest.mark.parametrize("section,key,value,message", [
    ("attack", "knows_extension", "false", "attack.knows_extension must be true or false"),
    ("training", "lr", float("nan"), "training.lr must be a finite number, got nan"),
    ("training", "lrr", 0.1, "training.lrr is not a config key"),
])
def test_attack_on_manifest_with_a_misread_entry_names_the_manifest(tmp_path, monkeypatch,
                                                                    capsys, section, key,
                                                                    value, message):
    run_dir = trained_run(tmp_path)
    manifest_path = run_dir / "manifest.json"
    manifest = json.loads(manifest_path.read_text())
    manifest["config"][section][key] = value
    manifest_path.write_text(json.dumps(manifest))

    def never(*args, **kwargs):
        raise AssertionError("attack started despite a bad config")

    monkeypatch.setattr("splitlab.cli.run_attack", never)
    err = one_line_error(capsys, ["attack", "--run", str(run_dir)])
    assert err.startswith(f"error: {manifest_path}: bad configuration: {message}")


def test_sweep_dims_variants_may_be_spelled_with_dashes(tmp_path):
    config = tiny_config_file(tmp_path)
    dashed, canonical = tmp_path / "dashed.csv", tmp_path / "canonical.csv"
    for variants, out in (("random-extension,adaptive-extension", dashed),
                          ("random_extension,adaptive_extension", canonical)):
        assert main(["sweep-dims", "--config", config, "--dims", "1,2",
                     "--variants", variants, "--out", str(out)]) == 0
    assert dashed.read_bytes() == canonical.read_bytes()


@pytest.mark.parametrize("n", [100, 20])
def test_attack_on_a_transcript_that_does_not_fit_the_dataset_is_a_one_line_error(
        tmp_path, capsys, n):
    # a smaller dataset than the one trained on leaves replayed indices
    # past its end
    run_dir = trained_run(tmp_path)
    manifest_path = run_dir / "manifest.json"
    manifest = json.loads(manifest_path.read_text())
    manifest["config"]["dataset"]["n"] = n
    manifest_path.write_text(json.dumps(manifest))
    capsys.readouterr()
    assert main(["attack", "--run", str(run_dir)]) == 1
    err = capsys.readouterr().err
    assert re.fullmatch(rf"error: transcript epoch \d, batch \d holds sample index \d+, "
                        rf"outside the {int(0.8 * n)} training samples\n", err)


def test_attack_on_a_transcript_with_a_narrower_gradient_is_a_one_line_error(tmp_path, capsys):
    # the record's activations and gradient agree, so the file loads; its
    # width differs from the first record's
    run_dir = trained_run(tmp_path)
    path = run_dir / "transcript.bin"
    records = Transcript.load(path).records
    last = records[-1]
    records[-1] = TranscriptRecord(last.epoch, last.indices, last.activations[:, :3],
                                   last.gradient[:, :3])
    Transcript(records).save(path)
    err = one_line_error(capsys, ["attack", "--run", str(run_dir)])
    assert err == ("error: transcript epoch 3, batch 3 has a gradient of width 3, "
                   "not the first record's 4\n")


def test_attack_on_a_record_with_no_samples_is_a_one_line_error(tmp_path, capsys):
    run_dir = trained_run(tmp_path)
    path = run_dir / "transcript.bin"
    records = Transcript.load(path).records
    last = records[-1]
    records.insert(-1, TranscriptRecord(last.epoch, np.zeros(0, np.int64), np.zeros((0, 4)),
                                        np.zeros((0, 4))))
    Transcript(records).save(path)
    err = one_line_error(capsys, ["attack", "--run", str(run_dir)])
    assert err == "error: transcript epoch 3, batch 3 holds no samples\n"


def test_attack_on_a_transcript_index_past_the_int64_range_is_a_one_line_error(
        tmp_path, capsys):
    # indices are stored as u64; one above the int64 range must not wrap
    # to a negative index that silently reads another row
    run_dir = trained_run(tmp_path)
    path = run_dir / "transcript.bin"
    transcript = Transcript.load(path)
    last = transcript.records[-1]
    blob = bytearray(path.read_bytes())
    at = blob.rfind(np.ascontiguousarray(last.indices, dtype="<u8").tobytes())
    blob[at:at + 8] = struct.pack("<Q", 2**64 - 3)
    path.write_bytes(bytes(blob))
    capsys.readouterr()
    assert main(["attack", "--run", str(run_dir)]) == 1
    err = capsys.readouterr().err
    assert len(transcript) == 16
    assert re.fullmatch(r"error: transcript epoch 3, batch 3 holds "
                        r"sample index -3, outside the 128 training samples\n", err)


def test_attack_on_a_record_naming_one_sample_twice_is_a_one_line_error(tmp_path, capsys):
    run_dir = trained_run(tmp_path)
    path = run_dir / "transcript.bin"
    record = Transcript.load(path).records[9]
    blob = bytearray(path.read_bytes())
    at = blob.find(np.ascontiguousarray(record.indices, dtype="<u8").tobytes())
    blob[at + 8:at + 16] = struct.pack("<Q", record.indices[0])
    path.write_bytes(bytes(blob))
    err = one_line_error(capsys, ["attack", "--run", str(run_dir)])
    assert err == (f"error: transcript epoch 2, batch 1 names sample index "
                   f"{record.indices[0]} more than once\n")


def test_attack_on_a_window_names_a_bad_record_by_its_epoch_and_batch(tmp_path, capsys):
    # the attack reads only the last 2 of 4 epochs, and the record is named
    # as training named its step
    run_dir = tmp_path / "run"
    config = tiny_config_file(tmp_path, attack={"epochs": 2, "window": 2, "leak_fraction": 0.05})
    assert main(["train", "--config", config, "--out", str(run_dir)]) == 0
    path = run_dir / "transcript.bin"
    transcript = Transcript.load(path)
    assert len(transcript) == 16
    blob = bytearray(path.read_bytes())
    at = blob.rfind(np.ascontiguousarray(transcript.records[-1].indices, dtype="<u8").tobytes())
    blob[at:at + 8] = struct.pack("<Q", 500)
    path.write_bytes(bytes(blob))
    err = one_line_error(capsys, ["attack", "--run", str(run_dir)])
    assert err == ("error: transcript epoch 3, batch 3 holds sample index 500, "
                   "outside the 128 training samples\n")


def test_a_diverging_train_leaves_no_transcript_and_no_partial_file(tmp_path, capsys):
    # one Adam step at this rate makes the weights about 1e300
    run_dir = tmp_path / "run"
    with np.errstate(over="ignore", invalid="ignore"):
        err = one_line_error(capsys, ["train", "--config", tiny_config_file(tmp_path),
                                      "--set", "training.lr=1e300", "--out", str(run_dir)])
    assert err == "error: epoch 0, batch 1: non-finite values produced by 'matmul'\n"
    assert list(run_dir.iterdir()) == []
