"""The benchmark's workloads: set-up from a seed, one timed round, output checks.

A workload's `setup(seed, workdir)` builds every input from the seed and
returns them; `round(inputs, span)` makes the program calls of one round and
returns (attempted, failed, outputs); `check(inputs, outputs)` returns the
list of failed output checks. Every round of a run repeats the same
operations on the same inputs.

Sizes are the acceptance profiles of tests/test_acceptance.py with fewer
epochs, so that one round takes seconds rather than minutes; the attack
learning rate is raised from 0.01 to 0.1 so that the shortened attack still
converges. Each workload also has a toy-sized smoke variant, which keeps
every check except the attack-quality thresholds, since those hold only at
full size.
"""

from __future__ import annotations

import json
import math
import sys
import traceback
from pathlib import Path

import numpy as np

from splitlab import cli, harness
from splitlab.data import Dataset, split_standardize, synth_regression
from splitlab.defense import RandomLabelExtension

# attack learning rate of every workload (see the module docstring)
ATTACK_LR = 0.1
# attack_main's bound on attack train MAE / baseline. Over 64 seeds at this
# workload's size the ratio ran from 0.056 to 0.321 (median about 0.1), so
# criterion 3's 0.3, set at seed 0, fails now and then; an attack that does not
# work reads 1 or more.
ATTACK_MAX_RATIO = 0.5


def mean_predictor_mae(train_labels: np.ndarray, eval_labels: np.ndarray) -> float:
    """The constant-mean baseline, computed here rather than by splitlab."""
    return float(np.mean(np.abs(eval_labels - np.mean(train_labels))))


def _same(a: float, b: float) -> bool:
    return abs(a - b) <= 1e-9 * max(1.0, abs(a))


def _synth_baselines(cfg: harness.ExperimentConfig) -> dict:
    raw = synth_regression(cfg.synth_n, cfg.synth_d, cfg.synth_noise_std, seed=cfg.seed)
    train, test = split_standardize(raw, ratio=cfg.split_ratio, seed=cfg.seed)
    return {"mp_train": mean_predictor_mae(train.labels, train.labels),
            "mp_test": mean_predictor_mae(train.labels, test.labels)}


def _check_baselines(result, inputs: dict, problems: list[str], where: str) -> None:
    for key, pair in (("mp_train", result.mp_train), ("mp_test", result.mp_test)):
        if not _same(pair.mae, inputs[key]):
            problems.append(f"{where}: program {key} MAE {pair.mae!r} != "
                            f"recomputed {inputs[key]!r}")


def _failed_call(what: str) -> None:
    print(f"operation failed: {what}", file=sys.stderr, flush=True)
    traceback.print_exc()


# ------------------------------------------------------------------ attack_main

class AttackMain:
    """One run_experiment at the acceptance "main" profile (synthetic n=2000,
    d=8, batch 64, attack over the full recorded history), no defense."""

    name = "attack_main"

    def __init__(self, smoke: bool):
        self.full = not smoke
        if smoke:
            self.sizes = dict(synth_n=300, epochs=4, attack_epochs=4)
        else:
            self.sizes = dict(synth_n=2000, epochs=100, attack_epochs=4)

    def setup(self, seed: int, workdir: Path) -> dict:
        cfg = harness.ExperimentConfig(seed=seed, synth_d=8, batch_size=64,
                                       attack_lr=ATTACK_LR, **self.sizes)
        return {"cfg": cfg, **_synth_baselines(cfg)}

    def round(self, inputs: dict, span) -> tuple[int, int, object]:
        with span("bench.run_experiment"):
            try:
                return 1, 0, harness.run_experiment(inputs["cfg"])
            except Exception:
                _failed_call("run_experiment")
                return 1, 1, None

    def check(self, inputs: dict, result) -> list[str]:
        problems: list[str] = []
        if result is None:
            return problems
        _check_baselines(result, inputs, problems, self.name)
        run = result.runs[0]
        if self.full and not run.attack_train.mae < ATTACK_MAX_RATIO * inputs["mp_train"]:
            problems.append(f"attack train MAE {run.attack_train.mae:.4f} is not "
                            f"< {ATTACK_MAX_RATIO} x baseline {inputs['mp_train']:.4f}")
        if not run.original_test.mae < inputs["mp_test"]:
            problems.append(f"original test MAE {run.original_test.mae:.4f} is not "
                            f"< test baseline {inputs['mp_test']:.4f}")
        return problems


# ---------------------------------------------------------- defense_sweep_small

class DefenseSweepSmall:
    """The paper's defense sweeps at the acceptance "small" profile (n=500,
    batch 16), two repeats per point, attack on the last training epoch."""

    name = "defense_sweep_small"
    repeats = 2
    dims = [2, 8]
    variants = ("random_extension", "adaptive_extension")
    families = [
        ("label_noise", "scale", [0.1, 1.0]),
        ("gradient_noise", "scale", [0.01, 0.1]),
        ("gradient_compression", "keep_rate", [0.25, 0.75]),
    ]

    def __init__(self, smoke: bool):
        self.full = not smoke
        if smoke:
            self.sizes = dict(synth_n=120, epochs=2, attack_epochs=1)
            self.families = [(v, p, grid[:1]) for v, p, grid in self.families]
            self.dims = self.dims[:1]
        else:
            self.sizes = dict(synth_n=500, epochs=20, attack_epochs=5)

    @property
    def points(self) -> int:
        return (sum(len(grid) for _, _, grid in self.families)
                + len(self.variants) * len(self.dims))

    def setup(self, seed: int, workdir: Path) -> dict:
        cfg = harness.ExperimentConfig(seed=seed, batch_size=16, attack_window=1,
                                       attack_lr=ATTACK_LR, repeats=self.repeats,
                                       **self.sizes)
        return {"cfg": cfg, **_synth_baselines(cfg)}

    def round(self, inputs: dict, span) -> tuple[int, int, object]:
        cfg = inputs["cfg"]
        results, failed = [], 0
        for variant, param, grid in self.families:
            with span("bench.sweep_defense"):
                try:
                    results += harness.sweep_defense(cfg, variant, param, grid)
                except Exception:
                    _failed_call(f"sweep_defense {variant}")
                    failed += len(grid) * self.repeats
        with span("bench.sweep_extension_dims"):
            try:
                results += harness.sweep_extension_dims(cfg, self.dims, self.variants)
            except Exception:
                _failed_call("sweep_extension_dims")
                failed += len(self.variants) * len(self.dims) * self.repeats
        return self.points * self.repeats, failed, (failed, results)

    def check(self, inputs: dict, outputs) -> list[str]:
        failed, results = outputs
        problems: list[str] = []
        runs = 0
        for result in results:
            where = f"{self.name} {result.defense}"
            _check_baselines(result, inputs, problems, where)
            runs += len(result.runs)
            for run in result.runs:
                if not run.original_test.mae < inputs["mp_test"]:
                    problems.append(f"{where} seed {run.seed}: original test MAE "
                                    f"{run.original_test.mae:.4f} is not < test "
                                    f"baseline {inputs['mp_test']:.4f}")
            if self.full and isinstance(result.defense, RandomLabelExtension):
                best = result.best_attack.attack_train.mae
                if not best >= inputs["mp_train"]:
                    problems.append(f"{where}: attacker-best train MAE {best:.4f} is "
                                    f"below baseline {inputs['mp_train']:.4f}")
        if not failed and (len(results), runs) != (self.points, self.points * self.repeats):
            problems.append(f"{len(results)} points with {runs} runs, expected "
                            f"{self.points} points x {self.repeats} repeats")
        return problems


# ---------------------------------------------------------------- paper_csv_cli

HOUSING_COLUMNS = ["MedInc", "HouseAge", "AveRooms", "AveBedrms", "Population",
                   "AveOccup", "Latitude", "Longitude", "MedHouseVal"]


def housing_like(rows: int, seed: int) -> np.ndarray:
    """A table shaped like California Housing: 8 features, the label last."""
    rng = np.random.default_rng(np.random.SeedSequence([seed, 0xCA]))
    income = rng.lognormal(1.25, 0.45, rows)
    age = rng.integers(1, 53, rows).astype(np.float64)
    rooms = rng.lognormal(1.6, 0.25, rows)
    bedrooms = rooms * rng.uniform(0.16, 0.24, rows)
    population = np.round(rng.lognormal(7.0, 0.75, rows))
    occupancy = rng.lognormal(1.05, 0.25, rows)
    latitude = rng.uniform(32.5, 42.0, rows)
    longitude = rng.uniform(-124.3, -114.3, rows)
    value = (0.45 * income + 0.006 * age - 0.4 * np.log(occupancy)
             + 0.5 * np.sin(0.9 * (latitude + longitude + 120.0))
             + rng.normal(scale=0.25, size=rows))
    value = np.clip(value, 0.15, 5.0)
    return np.column_stack([income, age, rooms, bedrooms, population, occupancy,
                            latitude, longitude, value])


def read_transcript(path: Path) -> list[tuple[int, np.ndarray, np.ndarray, np.ndarray]]:
    """The benchmark's own reader of the SLTRAN01 framing documented in
    `Transcript.save`: magic, u64 record count, then per record u32 epoch,
    u32 index count, u64 indices, and two (u32 rows, u32 cols, f64 row-major)
    matrices, all little-endian."""
    blob = path.read_bytes()
    if blob[:8] != b"SLTRAN01":
        raise ValueError("bad magic")
    off = 8
    count = int(np.frombuffer(blob, "<u8", 1, off)[0])
    off += 8
    records = []
    for _ in range(count):
        epoch, n_idx = (int(v) for v in np.frombuffer(blob, "<u4", 2, off))
        off += 8
        idx = np.frombuffer(blob, "<u8", n_idx, off)
        off += 8 * n_idx
        mats = []
        for _ in range(2):
            rows, cols = (int(v) for v in np.frombuffer(blob, "<u4", 2, off))
            off += 8
            mats.append(np.frombuffer(blob, "<f8", rows * cols, off).reshape(rows, cols))
            off += 8 * rows * cols
        records.append((epoch, idx, mats[0], mats[1]))
    if off != len(blob):
        raise ValueError(f"{len(blob) - off} trailing bytes")
    return records


class PaperCsvCli:
    """`splitlab train` then `splitlab attack` through cli.main, on a CSV
    shaped like California Housing, at the criterion-9 settings.

    The attack's test MAE is not checked against the baseline: at affordable
    attack lengths it beats the baseline on some seeds and not on others
    (seed 0: 0.49 x baseline after 30 attack epochs; seed 1: 1.01 x even
    after 40), so such a check would fail by seed rather than by fault.
    """

    name = "paper_csv_cli"
    batch = 128
    window = 5

    def __init__(self, smoke: bool):
        if smoke:
            self.rows, self.epochs, self.attack_epochs = 1500, 5, 1
        else:
            self.rows, self.epochs, self.attack_epochs = 20640, 10, 3

    def setup(self, seed: int, workdir: Path) -> dict:
        table = housing_like(self.rows, seed)
        csv_path = workdir / "housing_like.csv"
        np.savetxt(csv_path, table, fmt="%.6g", delimiter=",",
                   header=",".join(HOUSING_COLUMNS), comments="")
        # the CSV holds 6 significant digits; split what the program will read
        written = np.array([[float(f"{v:.6g}") for v in row] for row in table[:, -1:]])
        ds = Dataset(table[:, :-1], written)
        train, test = split_standardize(ds, ratio=0.8, seed=seed)
        run_dir = workdir / "run"
        settings = [
            "model.bottom_hidden=[16,16]", "model.top_hidden=[16]", "model.cut_dim=8",
            f"training.batch_size={self.batch}", f"training.epochs={self.epochs}",
            f"attack.epochs={self.attack_epochs}", f"attack.window={self.window}",
            f"attack.lr={ATTACK_LR}", "attack.leak_fraction=0.01",
        ]
        train_argv = ["train", "--dataset", str(csv_path), "--seed", str(seed),
                      "--out", str(run_dir)]
        for item in settings:
            train_argv += ["--set", item]
        return {
            "train_argv": train_argv,
            "attack_argv": ["attack", "--run", str(run_dir),
                            "--out", str(workdir / "attack.json")],
            "run_dir": run_dir,
            "summary": workdir / "attack.json",
            "n_train": train.n,
            "mp_train": mean_predictor_mae(train.labels, train.labels),
            "mp_test": mean_predictor_mae(train.labels, test.labels),
        }

    def round(self, inputs: dict, span) -> tuple[int, int, object]:
        failed = 0
        for argv in (inputs["train_argv"], inputs["attack_argv"]):
            with span("bench.cli"):
                try:
                    rc = cli.main(argv)
                except Exception:
                    _failed_call(f"splitlab {argv[0]}")
                    rc = None
            failed += rc != 0
        return 2, failed, failed

    def check(self, inputs: dict, failed) -> list[str]:
        if failed:
            return []
        problems: list[str] = []
        run_dir = inputs["run_dir"]
        n_train = inputs["n_train"]
        try:
            records = read_transcript(run_dir / "transcript.bin")
        except ValueError as exc:
            return [f"transcript unreadable: {exc}"]
        expected = self.epochs * math.ceil(n_train / self.batch)
        if len(records) != expected:
            problems.append(f"{len(records)} transcript records, expected {expected}")
        for epoch in range(self.epochs):
            idx = np.concatenate([r[1] for r in records if r[0] == epoch] or [[]])
            if not np.array_equal(np.sort(idx), np.arange(n_train)):
                problems.append(f"epoch {epoch} indices are not a permutation of "
                                f"the {n_train} training rows")
        if not all(np.isfinite(r[2]).all() and np.isfinite(r[3]).all() for r in records):
            problems.append("transcript holds non-finite values")
        with open(run_dir / "manifest.json") as fh:
            loss = json.load(fh)["final_train_loss"]
        if not loss < 1.0:
            problems.append(f"final_train_loss {loss} is not < 1.0")
        with open(inputs["summary"]) as fh:
            summary = json.load(fh)
        program_mp = summary["mean_prediction_train"]["mae"]
        if not _same(program_mp, inputs["mp_train"]):
            problems.append(f"program train baseline {program_mp!r} != recomputed "
                            f"{inputs['mp_train']!r}")
        inferred = np.asarray(summary["inferred_labels"], dtype=np.float64)
        if inferred.shape != (n_train,) or not np.isfinite(inferred).all():
            problems.append(f"attack summary holds {inferred.shape} inferred labels, "
                            f"expected {n_train} finite values")
        return problems


WORKLOADS = {w.name: w for w in (AttackMain, DefenseSweepSmall, PaperCsvCli)}
