#!/usr/bin/env python3
"""Print the SHA-256 of a fixed set of splitlab outputs, one line each.

A change that must leave every output byte-identical is checked by running
this script in a checkout of the parent commit and in the changed tree and
comparing the printed lines (`diff` of the two outputs is empty when the
bytes agree). The set:

  - the `emit_results` JSON of the acceptance label-noise sweep (main
    profile, scales 0.1, 1 and 4) and of the `rle_small` run (small
    profile, random extension, 2 repeats);
  - the `emit_results` JSON of one small-profile `run_experiment` at batch
    48 with 2 repeats and the default window: its 400 training rows end in
    a short batch of 16, and the attack replays two lanes over several
    training epochs;
  - the `emit_results` JSON of one round shaped like the benchmark's
    `defense_sweep_small` workload (seed 0, n 500, three sweep families with
    two values each, both extension variants at widths 2 and 8, 2 repeats);
  - the `emit_results` JSON of one `harness._run_points` call over no
    defense, label noise, gradient noise and compression (all of top-model
    width 1, so the harness may train and attack them together), 2 repeats;
  - for each of the six defenses, a 160-sample synthetic `splitlab train`
    (transcript, checkpoints, manifest) and its `splitlab attack --out`;
  - the same train and attack, without a defense, on tanh networks with a
    hidden layer on both sides (so the attack's surrogate has two layers);
  - the same train and attack, without a defense, replaying only the last
    2 of the 4 training epochs (`attack.window=2`), so the attack reads a
    window of the transcript file;
  - the same train and attack at `training.batch_size=48` under the adaptive
    extension (targets formed per batch) and gradient noise (the sent
    gradient formed per batch): the 128 training rows end in a short batch
    of 32, so training and the attack each run two batch shapes;
  - one CSV `splitlab train` (label column by name, dataset name set) and
    its `splitlab attack --out`, run from inside a temporary directory so
    the path the manifest records is the same in every checkout;
  - two `splitlab experiment` runs that diverge, one in training and one in
    the attack, printed as their exit code and final `error:` line instead
    of a digest (the RuntimeWarning lines numpy writes before it carry
    source paths and line numbers, so they are left out);
  - a CSV whose label column is neither the first nor the last, through
    `splitlab experiment --out` (label column by name) and `splitlab
    baseline-mp --out` (by index), from inside the temporary directory: both
    outputs carry the dataset's name, its path as given.

Usage, from the root of a checkout (about 20 s on two cores):

    python3 tools/output_digest.py > digests.txt

The script imports `splitlab` from the `src/` directory next to it and runs
numpy single-threaded, so digests depend only on the code and the numpy
build.
"""

from __future__ import annotations

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import contextlib
import hashlib
import io
import json
import sys
import tempfile
from dataclasses import replace
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import numpy as np  # noqa: E402

from splitlab.cli import main as cli_main  # noqa: E402
from splitlab import harness  # noqa: E402
from splitlab.harness import (  # noqa: E402
    ExperimentConfig,
    emit_results,
    run_experiment,
    sweep_defense,
    sweep_extension_dims,
)

DEFENSES = ("none", "label_noise", "gradient_noise", "gradient_compression",
            "random_extension", "adaptive_extension")

# the synthetic CLI runs: small enough that all six take a few seconds
TINY_CONFIG = {
    "dataset": {"kind": "synth", "n": 160, "d": 4},
    "model": {"cut_dim": 4, "bottom_hidden": []},
    "training": {"epochs": 4, "batch_size": 32, "seed": 0},
    "attack": {"epochs": 2, "window": 4, "leak_fraction": 0.05},
}
RUN_FILES = ("transcript.bin", "bottom.json", "top.json", "manifest.json", "attack.json")


def _sha(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _results_digest(results, work: Path) -> str:
    path = work / "results.json"
    emit_results(results, "json", path)
    return _sha(path)


def _cli(argv: list[str]) -> None:
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli_main(argv)
    if code != 0:
        raise SystemExit(f"splitlab {' '.join(argv)} exited with {code}")


def _failure(argv: list[str]) -> str:
    """The exit code and the final `error:` line of a command that fails."""
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = cli_main(argv)
    errors = [line for line in err.getvalue().splitlines() if line.startswith("error:")]
    if code == 0 or not errors:
        raise SystemExit(f"splitlab {' '.join(argv)} did not fail with an error line")
    return f"exit {code}, {errors[-1]}"


# diverging runs: a training learning rate that overflows the training
# step, and an attack learning rate that overflows an attack step
DIVERGING = {
    "training lr 1e200": ["--set", "training.lr=1e200", "--set", "attack.epochs=1"],
    "attack lr 1e200": ["--set", "attack.lr=1e200", "--set", "attack.epochs=2",
                        "--repeats", "2"],
}


def digests(work: Path):
    """(name, sha256) of every output in the set, in a fixed order; for a
    diverging run, (name, its exit code and error line)."""
    main = ExperimentConfig(seed=0)
    small = replace(main, synth_n=500, batch_size=16)
    yield "acceptance noise sweep", _results_digest(
        sweep_defense(main, "label_noise", "scale", [0.1, 1, 4]), work)
    yield "acceptance rle_small", _results_digest(
        [run_experiment(replace(small, repeats=2, defense={"name": "random_extension"}))], work)
    yield "small profile batch 48, 2 repeats", _results_digest(
        [run_experiment(replace(small, repeats=2, batch_size=48))], work)

    sweep = ExperimentConfig(seed=0, synth_n=500, batch_size=16, epochs=20, attack_epochs=5,
                             attack_window=1, attack_lr=0.1, repeats=2)
    results = []
    for variant, param, grid in (("label_noise", "scale", [0.1, 1.0]),
                                 ("gradient_noise", "scale", [0.01, 0.1]),
                                 ("gradient_compression", "keep_rate", [0.25, 0.75])):
        results += sweep_defense(sweep, variant, param, grid)
    results += sweep_extension_dims(sweep, [2, 8])
    yield "defense_sweep_small round", _results_digest(results, work)
    yield "width-1 points of four defenses", _results_digest(harness._run_points(
        [replace(sweep, defense=spec) for spec in (
            {"name": "none"}, {"name": "label_noise", "scale": 0.5},
            {"name": "gradient_noise", "scale": 0.05},
            {"name": "gradient_compression", "keep_rate": 0.5})]), work)

    config = work / "tiny.json"
    config.write_text(json.dumps(TINY_CONFIG))
    for name in DEFENSES:
        run = work / name
        _cli(["train", "--config", str(config), "--defense", name, "--out", str(run)])
        _cli(["attack", "--run", str(run), "--out", str(run / "attack.json")])
        for file in RUN_FILES:
            yield f"train+attack {name} {file}", _sha(run / file)

    run = work / "tanh_hidden"
    _cli(["train", "--config", str(config), "--set", "model.activation=tanh",
          "--set", "model.top_hidden=[8]", "--set", "model.bottom_hidden=[8]",
          "--out", str(run)])
    _cli(["attack", "--run", str(run), "--out", str(run / "attack.json")])
    for file in RUN_FILES:
        yield f"train+attack tanh hidden {file}", _sha(run / file)

    run = work / "window_2"
    _cli(["train", "--config", str(config), "--set", "attack.window=2", "--out", str(run)])
    _cli(["attack", "--run", str(run), "--out", str(run / "attack.json")])
    for file in RUN_FILES:
        yield f"train+attack window 2 {file}", _sha(run / file)

    for name in ("adaptive_extension", "gradient_noise"):
        run = work / f"batch_48_{name}"
        _cli(["train", "--config", str(config), "--defense", name,
              "--set", "training.batch_size=48", "--out", str(run)])
        _cli(["attack", "--run", str(run), "--out", str(run / "attack.json")])
        for file in RUN_FILES:
            yield f"train+attack batch 48 {name} {file}", _sha(run / file)

    rng = np.random.default_rng(7)
    rows = rng.normal(size=(200, 5))
    np.savetxt(work / "data.csv", rows, delimiter=",", header="a,b,c,d,price", comments="")
    previous = Path.cwd()
    os.chdir(work)
    try:
        _cli(["train", "--dataset", "data.csv", "--set", "dataset.label_column=price",
              "--set", "dataset.name=digest", "--set", "training.epochs=2",
              "--set", "model.bottom_hidden=[]", "--set", "model.cut_dim=4",
              "--out", "csv_run"])
        _cli(["attack", "--run", "csv_run", "--out", "csv_run/attack.json"])
    finally:
        os.chdir(previous)
    for file in RUN_FILES:
        yield f"train+attack csv {file}", _sha(work / "csv_run" / file)

    for name, extra in DIVERGING.items():
        yield f"divergence {name}", _failure(
            ["experiment", "--dataset", "synth", "--set", "dataset.n=160",
             "--set", "training.epochs=2", *extra])

    rows = np.random.default_rng(8).normal(size=(150, 4))
    np.savetxt(work / "middle.csv", rows, delimiter=",", header="a,price,b,c", comments="")
    os.chdir(work)
    try:
        _cli(["experiment", "--dataset", "middle.csv", "--set", "dataset.label_column=price",
              "--set", "training.epochs=2", "--set", "attack.epochs=2",
              "--set", "model.bottom_hidden=[]", "--set", "model.cut_dim=4",
              "--out", "middle_experiment.json", "--format", "json"])
        _cli(["baseline-mp", "--dataset", "middle.csv", "--set", "dataset.label_column=1",
              "--out", "middle_baseline.json"])
    finally:
        os.chdir(previous)
    for file in ("middle_experiment.json", "middle_baseline.json"):
        yield f"csv label column 1 {file}", _sha(work / file)


def run() -> None:
    with tempfile.TemporaryDirectory(prefix="splitlab-digest-") as tmp:
        for name, digest in digests(Path(tmp)):
            print(f"{digest}  {name}", flush=True)


if __name__ == "__main__":
    run()
