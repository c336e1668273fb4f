"""End-to-end experiment orchestration.

One experiment = load data, train the split protocol under a defense, replay
the transcript through the attack, and score the original task, the attack,
and the constant-mean baseline on both splits. Repeats run with derived seeds
and best-of selection; sweeps map a defense parameter or the extension width
over a grid of values.
"""

from __future__ import annotations

import csv
import json
import time
from dataclasses import dataclass, field, replace

import numpy as np

from .attack import AttackConfig, run_attack
from .data import Dataset, load_csv, sample_leaked, split_standardize, synth_regression
from .defense import Defense, defense_from_dict, defense_to_dict, is_extension, target_dim
from .metrics import MetricPair, best_of_runs, mean_value_baseline, metric_pair
from .nn import build_network
from .protocol import SplitSession, predict, train_split

__all__ = [
    "HarnessError",
    "ExperimentConfig",
    "RunOutcome",
    "ExperimentResult",
    "run_experiment",
    "sweep_defense",
    "sweep_extension_dims",
    "emit_results",
    "ATTACK_SEED_XOR",
]

# derived attack seeds: run seed XOR this constant, for independent streams
ATTACK_SEED_XOR = 0x9E3779B9

ATTACK_READOUTS = ("secret_column", "leak_selected")


class HarnessError(RuntimeError):
    pass


@dataclass(frozen=True)
class ExperimentConfig:
    # data source: a CSV path, or the synthetic generator when path is None
    dataset_path: str | None = None
    label_column: str | int = -1
    csv_header: bool = True
    dataset_name: str = ""
    synth_n: int = 2000
    synth_d: int = 8
    synth_noise_std: float = 0.1
    split_ratio: float = 0.8
    # model
    bottom_hidden: tuple[int, ...] = (16,)
    top_hidden: tuple[int, ...] = ()
    cut_dim: int = 8
    activation: str = "relu"
    # training
    lr: float = 0.01
    epochs: int = 100
    batch_size: int = 64
    seed: int = 0
    # defense (name + parameters; resolved once per experiment)
    defense: dict = field(default_factory=lambda: {"name": "none"})
    # attack. The window is how many final training epochs of the transcript
    # the attack replays; the recorded gradients from early, unconverged
    # epochs carry most of the label signal, so the default replays them all.
    attack_alpha: float = 0.05
    attack_lr: float = 0.01
    attack_epochs: int = 25
    attack_window: int = 100
    leak_fraction: float = 0.01
    attacker_knows_extension: bool = True
    # Under an extension defense the attack's scalar answer is one column of
    # its wide output. "secret_column" scores it where the labels actually
    # live (the label party's hidden slot, which the attacker cannot
    # identify); "leak_selected" lets the attacker pick the column that best
    # matches its leaked labels.
    attack_readout: str = "secret_column"
    # repeats
    repeats: int = 1

    def __post_init__(self):
        if self.repeats < 1:
            raise HarnessError("repeats must be >= 1")
        if self.attack_readout not in ATTACK_READOUTS:
            raise HarnessError(
                f"attack_readout must be one of {ATTACK_READOUTS}, got '{self.attack_readout}'")

    @classmethod
    def paper_profile(cls, dataset_path: str, batch_size: int = 128, **overrides) -> "ExperimentConfig":
        """Full-scale settings for a real CSV: 100 training epochs, 50 attack
        epochs, 1% leak, learning rate 0.01."""
        base = dict(
            dataset_path=dataset_path,
            lr=0.01,
            epochs=100,
            batch_size=batch_size,
            attack_alpha=0.05,
            attack_lr=0.01,
            attack_epochs=50,
            attack_window=5,
            leak_fraction=0.01,
        )
        base.update(overrides)
        return cls(**base)

    def to_dict(self) -> dict:
        if self.dataset_path is None:
            dataset = {"kind": "synth", "n": self.synth_n, "d": self.synth_d,
                       "noise_std": self.synth_noise_std}
        else:
            dataset = {"kind": "csv", "path": self.dataset_path,
                       "label_column": self.label_column, "header": self.csv_header}
        if self.dataset_name:
            dataset["name"] = self.dataset_name
        return {
            "dataset": dataset,
            "split_ratio": self.split_ratio,
            "model": {
                "bottom_hidden": list(self.bottom_hidden),
                "top_hidden": list(self.top_hidden),
                "cut_dim": self.cut_dim,
                "activation": self.activation,
            },
            "training": {
                "lr": self.lr,
                "epochs": self.epochs,
                "batch_size": self.batch_size,
                "seed": self.seed,
            },
            "defense": dict(self.defense),
            "attack": {
                "alpha": self.attack_alpha,
                "lr": self.attack_lr,
                "epochs": self.attack_epochs,
                "window": self.attack_window,
                "leak_fraction": self.leak_fraction,
                "knows_extension": self.attacker_knows_extension,
                "readout": self.attack_readout,
            },
            "repeats": self.repeats,
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "ExperimentConfig":
        kw: dict = {}
        ds = payload.get("dataset", {})
        if ds.get("kind", "synth") == "csv":
            kw["dataset_path"] = ds["path"]
            kw["label_column"] = ds.get("label_column", -1)
            kw["csv_header"] = bool(ds.get("header", True))
        else:
            kw["synth_n"] = int(ds.get("n", 2000))
            kw["synth_d"] = int(ds.get("d", 8))
            kw["synth_noise_std"] = float(ds.get("noise_std", 0.1))
        if "name" in ds:
            kw["dataset_name"] = ds["name"]
        if "split_ratio" in payload:
            kw["split_ratio"] = float(payload["split_ratio"])
        model = payload.get("model", {})
        if "bottom_hidden" in model:
            kw["bottom_hidden"] = tuple(int(v) for v in model["bottom_hidden"])
        if "top_hidden" in model:
            kw["top_hidden"] = tuple(int(v) for v in model["top_hidden"])
        if "cut_dim" in model:
            kw["cut_dim"] = int(model["cut_dim"])
        if "activation" in model:
            kw["activation"] = str(model["activation"])
        training = payload.get("training", {})
        for src, dst, cast in (("lr", "lr", float), ("epochs", "epochs", int),
                               ("batch_size", "batch_size", int), ("seed", "seed", int)):
            if src in training:
                kw[dst] = cast(training[src])
        if "defense" in payload:
            kw["defense"] = dict(payload["defense"])
        attack = payload.get("attack", {})
        for src, dst, cast in (("alpha", "attack_alpha", float),
                               ("lr", "attack_lr", float),
                               ("epochs", "attack_epochs", int),
                               ("window", "attack_window", int),
                               ("leak_fraction", "leak_fraction", float)):
            if src in attack:
                kw[dst] = cast(attack[src])
        if "knows_extension" in attack:
            kw["attacker_knows_extension"] = bool(attack["knows_extension"])
        if "readout" in attack:
            kw["attack_readout"] = str(attack["readout"])
        if "repeats" in payload:
            kw["repeats"] = int(payload["repeats"])
        return cls(**kw)


@dataclass(frozen=True)
class RunOutcome:
    seed: int
    attack_seed: int
    original_train: MetricPair
    original_test: MetricPair
    attack_train: MetricPair
    attack_test: MetricPair
    runtime_ms: float


@dataclass(frozen=True)
class ExperimentResult:
    config: ExperimentConfig
    dataset_name: str
    defense: Defense
    runs: tuple[RunOutcome, ...]
    mp_train: MetricPair
    mp_test: MetricPair
    runtime_ms: float

    @property
    def best_original(self) -> RunOutcome:
        return best_of_runs(list(self.runs), "original_mae")

    @property
    def best_attack(self) -> RunOutcome:
        """Attacker-optimal repeat (lowest attack MAE)."""
        return best_of_runs(list(self.runs), "attack_mae")

    @property
    def worst_attack(self) -> RunOutcome:
        """Defender-optimal repeat (highest attack MAE)."""
        return max(self.runs, key=lambda r: r.attack_train.mae)


def _load_dataset(cfg: ExperimentConfig) -> Dataset:
    if cfg.dataset_path is None:
        ds = synth_regression(cfg.synth_n, cfg.synth_d, cfg.synth_noise_std,
                              seed=cfg.seed)
    else:
        ds = load_csv(cfg.dataset_path, label_column=cfg.label_column,
                      header=cfg.csv_header)
    if cfg.dataset_name:
        ds = Dataset(ds.features, ds.labels, name=cfg.dataset_name, scaler=ds.scaler)
    return ds


def _build_session(cfg: ExperimentConfig, defense: Defense, feature_dim: int,
                   run_seed: int) -> SplitSession:
    bottom_seed = int(np.random.SeedSequence([run_seed, 0xB0]).generate_state(1)[0])
    top_seed = int(np.random.SeedSequence([run_seed, 0x70]).generate_state(1)[0])
    bottom = build_network([feature_dim, *cfg.bottom_hidden, cfg.cut_dim],
                           activation=cfg.activation, seed=bottom_seed, role="bottom")
    top = build_network([cfg.cut_dim, *cfg.top_hidden, target_dim(defense)],
                        activation=cfg.activation, seed=top_seed, role="top")
    return SplitSession(bottom, top, defense, lr=cfg.lr, batch_size=cfg.batch_size,
                        epochs=cfg.epochs, seed=run_seed)


def _surrogate_dims(cfg: ExperimentConfig, defense: Defense) -> list[int]:
    out = target_dim(defense) if cfg.attacker_knows_extension else 1
    return [cfg.cut_dim, *cfg.top_hidden, out]


def run_experiment(cfg: ExperimentConfig) -> ExperimentResult:
    """Train, attack, and evaluate `cfg.repeats` times with derived seeds."""
    started = time.perf_counter()
    raw = _load_dataset(cfg)
    train, test = split_standardize(raw, ratio=cfg.split_ratio, seed=cfg.seed)
    if cfg.batch_size > train.n:
        raise HarnessError(f"batch size {cfg.batch_size} exceeds train size {train.n}")
    defense = defense_from_dict(cfg.defense, cut_dim=cfg.cut_dim, seed=cfg.seed)

    mp_train = mean_value_baseline(train.labels, train.labels)
    mp_test = mean_value_baseline(train.labels, test.labels)

    runs = []
    for i in range(cfg.repeats):
        run_seed = cfg.seed + i
        attack_seed = run_seed ^ ATTACK_SEED_XOR
        run_started = time.perf_counter()
        try:
            session = _build_session(cfg, defense, raw.d, run_seed)
            _, transcript, _ = train_split(session, train)

            original_train = metric_pair(predict(session, train.features), train.labels)
            original_test = metric_pair(predict(session, test.features), test.labels)

            leaked = sample_leaked(train, cfg.leak_fraction, seed=attack_seed)
            attack_cfg = AttackConfig(
                alpha=cfg.attack_alpha,
                lr=cfg.attack_lr,
                epochs=cfg.attack_epochs,
                seed=attack_seed,
                surrogate_dims=_surrogate_dims(cfg, defense),
                activation=cfg.activation,
                transcript_window=cfg.attack_window,
            )
            evaluation_column = None
            if (cfg.attack_readout == "secret_column" and is_extension(defense)
                    and cfg.attacker_knows_extension):
                evaluation_column = defense.label_index
            attack = run_attack(transcript, session.bottom, train, leaked,
                                attack_cfg, test=test,
                                evaluation_column=evaluation_column)
        except Exception as exc:
            raise HarnessError(f"run {i} (seed {run_seed}): {exc}") from exc
        runs.append(RunOutcome(
            seed=run_seed,
            attack_seed=attack_seed,
            original_train=original_train,
            original_test=original_test,
            attack_train=attack.train_metrics,
            attack_test=attack.test_metrics,
            runtime_ms=(time.perf_counter() - run_started) * 1e3,
        ))

    return ExperimentResult(
        config=cfg,
        dataset_name=raw.name,
        defense=defense,
        runs=tuple(runs),
        mp_train=mp_train,
        mp_test=mp_test,
        runtime_ms=(time.perf_counter() - started) * 1e3,
    )


def sweep_defense(cfg: ExperimentConfig, variant: str, param: str,
                  values: list) -> list[ExperimentResult]:
    """One experiment per grid value of a single defense parameter."""
    if not values:
        raise HarnessError("empty parameter grid")
    results = []
    for value in values:
        spec = {"name": variant, param: value}
        results.append(run_experiment(replace(cfg, defense=spec)))
    return results


def sweep_extension_dims(cfg: ExperimentConfig, dims_list: list[int],
                         variants: tuple[str, ...] = ("random_extension",
                                                      "adaptive_extension")
                         ) -> list[ExperimentResult]:
    """Both extension defenses at every requested width."""
    if not dims_list or any(d < 1 for d in dims_list):
        raise HarnessError("dims must be a non-empty list of positive widths")
    results = []
    for variant in variants:
        for dims in dims_list:
            spec = {"name": variant, "dims": int(dims)}
            results.append(run_experiment(replace(cfg, defense=spec)))
    return results


# ------------------------------------------------------------------ emission

_COLUMNS = ["dataset", "defense", "params", "split", "task", "mae", "mse",
            "seed", "runtime_ms"]


def _param_string(defense: Defense) -> str:
    spec = defense_to_dict(defense)
    spec.pop("name")
    return ";".join(f"{k}={spec[k]}" for k in sorted(spec))


def result_rows(result: ExperimentResult, include_timing: bool = False) -> list[dict]:
    """Flatten one experiment into Table-style rows: train/test x
    original/attack plus the constant-mean baseline."""
    name = defense_to_dict(result.defense)["name"]
    params = _param_string(result.defense)
    best_orig = result.best_original
    best_att = result.best_attack
    rows = []

    def row(split, task, pair, seed, runtime_ms):
        rows.append({
            "dataset": result.dataset_name,
            "defense": name,
            "params": params,
            "split": split,
            "task": task,
            "mae": pair.mae,
            "mse": pair.mse,
            "seed": seed,
            # kept deterministic by default so identical configs reproduce
            # identical files; opt in for wall-clock numbers
            "runtime_ms": round(runtime_ms, 3) if include_timing else 0.0,
        })

    row("train", "original", best_orig.original_train, best_orig.seed, best_orig.runtime_ms)
    row("test", "original", best_orig.original_test, best_orig.seed, best_orig.runtime_ms)
    row("train", "attack", best_att.attack_train, best_att.attack_seed, best_att.runtime_ms)
    row("test", "attack", best_att.attack_test, best_att.attack_seed, best_att.runtime_ms)
    row("train", "baseline", result.mp_train, result.config.seed, 0.0)
    row("test", "baseline", result.mp_test, result.config.seed, 0.0)
    return rows


def emit_results(results: list[ExperimentResult], fmt: str, path,
                 include_timing: bool = False) -> None:
    """Write a CSV or JSON result table in a fixed column order."""
    rows = []
    for result in results:
        rows.extend(result_rows(result, include_timing=include_timing))
    if fmt == "csv":
        with open(path, "w", newline="") as fh:
            writer = csv.DictWriter(fh, fieldnames=_COLUMNS)
            writer.writeheader()
            writer.writerows(rows)
    elif fmt == "json":
        with open(path, "w") as fh:
            json.dump(rows, fh, indent=2, sort_keys=True)
            fh.write("\n")
    else:
        raise HarnessError(f"format must be csv or json, got '{fmt}'")
