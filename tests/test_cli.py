import csv
import json

import pytest

from splitlab.cli import main


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
