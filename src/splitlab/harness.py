"""End-to-end experiment orchestration.

One experiment = load data, train the split protocol under a defense, replay
the transcript through the attack, and score the original task, the attack,
and the constant-mean baseline on both splits. Repeats run with derived seeds
and best-of selection; sweeps map a defense parameter or the extension width
over a grid of values. The runs of an experiment or sweep that can share
one tape walk per batch are trained and attacked in lock-step.
"""

from __future__ import annotations

import csv
import json
import time
from dataclasses import dataclass, field, replace

import numpy as np

from .attack import AttackConfig, AttackLane, attack_lanes, run_attack  # noqa: F401
from .data import (
    Dataset,
    LeakedSet,
    load_csv,
    sample_leaked,
    split_standardize,
    synth_regression,
)
from .defense import Defense, defense_from_dict, defense_to_dict, is_extension, target_dim
from .metrics import MetricPair, best_of_runs, mean_value_baseline, metric_pair
from .nn import build_network
from .protocol import SplitSession, predict, train_lanes, train_split  # noqa: F401

# run_attack and train_split, the single-run entry points, stay importable
# from here for code that wraps them where the harness used to call them.

__all__ = [
    "HarnessError",
    "ExperimentConfig",
    "RunOutcome",
    "ExperimentResult",
    "AttackPlan",
    "load_dataset",
    "build_session",
    "plan_attack",
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
        try:
            defense_from_dict(self.defense, cut_dim=self.cut_dim, seed=self.seed)
        except (TypeError, ValueError) as exc:
            raise HarnessError(f"bad defense {self.defense!r}: {exc}") from None

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
    # the run's lock-step group's wall time divided by its lane count
    runtime_ms: float


@dataclass(frozen=True)
class ExperimentResult:
    config: ExperimentConfig
    dataset_name: str
    defense: Defense
    runs: tuple[RunOutcome, ...]
    mp_train: MetricPair
    mp_test: MetricPair
    # wall time of the producing call divided by its number of points
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


def load_dataset(cfg: ExperimentConfig) -> Dataset:
    """The configured dataset: the CSV at cfg.dataset_path, or the synthetic
    generator when there is none."""
    if cfg.dataset_path is None:
        ds = synth_regression(cfg.synth_n, cfg.synth_d, cfg.synth_noise_std,
                              seed=cfg.seed)
    else:
        ds = load_csv(cfg.dataset_path, label_column=cfg.label_column,
                      header=cfg.csv_header)
    if cfg.dataset_name:
        ds = Dataset(ds.features, ds.labels, name=cfg.dataset_name, scaler=ds.scaler)
    return ds


def build_session(cfg: ExperimentConfig, defense: Defense, feature_dim: int,
                  run_seed: int) -> SplitSession:
    """A fresh, untrained session for one run, its models seeded from run_seed."""
    bottom_seed = int(np.random.SeedSequence([run_seed, 0xB0]).generate_state(1)[0])
    top_seed = int(np.random.SeedSequence([run_seed, 0x70]).generate_state(1)[0])
    bottom = build_network([feature_dim, *cfg.bottom_hidden, cfg.cut_dim],
                           activation=cfg.activation, seed=bottom_seed, role="bottom")
    top = build_network([cfg.cut_dim, *cfg.top_hidden, target_dim(defense)],
                        activation=cfg.activation, seed=top_seed, role="top")
    return SplitSession(bottom, top, defense, lr=cfg.lr, batch_size=cfg.batch_size,
                        epochs=cfg.epochs, seed=run_seed)


@dataclass(frozen=True)
class AttackPlan:
    """What the attacker of one run brings: its leaked labels, its attack
    settings and the column its answer is read from (None: chosen by the
    leak)."""

    leaked: LeakedSet
    config: AttackConfig
    evaluation_column: int | None


def plan_attack(cfg: ExperimentConfig, defense: Defense, train: Dataset,
                run_seed: int) -> AttackPlan:
    """The attack on the run seeded run_seed: the leaked set and the attack
    seed derive from run_seed ^ ATTACK_SEED_XOR, the surrogate matches the
    top model's width when the attacker knows the extension, and the
    readout column follows cfg.attack_readout."""
    attack_seed = run_seed ^ ATTACK_SEED_XOR
    width = target_dim(defense) if cfg.attacker_knows_extension else 1
    config = AttackConfig(
        alpha=cfg.attack_alpha,
        lr=cfg.attack_lr,
        epochs=cfg.attack_epochs,
        seed=attack_seed,
        surrogate_dims=[cfg.cut_dim, *cfg.top_hidden, width],
        activation=cfg.activation,
        transcript_window=cfg.attack_window,
    )
    evaluation_column = None
    if (cfg.attack_readout == "secret_column" and is_extension(defense)
            and cfg.attacker_knows_extension):
        evaluation_column = defense.label_index
    leaked = sample_leaked(train, cfg.leak_fraction, seed=attack_seed)
    return AttackPlan(leaked, config, evaluation_column)


@dataclass
class _Lane:
    """One (grid point, repeat) pair of an experiment or sweep."""

    point: int
    run: int
    label: str  # names the point's defense, run index and seed in errors
    session: SplitSession
    plan: AttackPlan


def run_experiment(cfg: ExperimentConfig) -> ExperimentResult:
    """Train, attack, and evaluate `cfg.repeats` times with derived seeds."""
    return _run_points([cfg])[0]


def _run_points(configs: list[ExperimentConfig]) -> list[ExperimentResult]:
    """Every repeat of every config, which differ only in their defense.

    Each (point, repeat) pair is a lane. Lanes whose defense kind and
    top-model width agree train and are attacked in lock-step (see
    train_lanes and attack_lanes), and each lane computes exactly what it
    would alone. A run's runtime_ms is its lock-step group's wall time
    divided by the group's lane count; a result's runtime_ms is the wall
    time of the whole call divided by the number of configs.
    """
    started = time.perf_counter()
    cfg = configs[0]
    raw = load_dataset(cfg)
    train, test = split_standardize(raw, ratio=cfg.split_ratio, seed=cfg.seed)
    if cfg.batch_size > train.n:
        raise HarnessError(f"batch size {cfg.batch_size} exceeds train size {train.n}")
    defenses = [defense_from_dict(c.defense, cut_dim=c.cut_dim, seed=c.seed) for c in configs]

    groups: dict[tuple, list[_Lane]] = {}
    for point, (c, defense) in enumerate(zip(configs, defenses)):
        for i in range(c.repeats):
            run_seed = c.seed + i
            label = f"{_defense_label(defense)} run {i} (seed {run_seed})"
            try:
                lane = _Lane(point, i, label, build_session(c, defense, raw.d, run_seed),
                             plan_attack(c, defense, train, run_seed))
            except Exception as exc:
                raise HarnessError(f"{label}: {exc}") from exc
            groups.setdefault((type(defense), target_dim(defense)), []).append(lane)

    runs: list[list[RunOutcome | None]] = [[None] * c.repeats for c in configs]
    for lanes in groups.values():
        for lane, outcome in zip(lanes, _run_group(lanes, train, test)):
            runs[lane.point][lane.run] = outcome

    mp_train = mean_value_baseline(train.labels, train.labels)
    mp_test = mean_value_baseline(train.labels, test.labels)
    runtime_ms = (time.perf_counter() - started) * 1e3 / len(configs)
    return [ExperimentResult(config=c, dataset_name=raw.name, defense=defense,
                             runs=tuple(point_runs), mp_train=mp_train, mp_test=mp_test,
                             runtime_ms=runtime_ms)
            for c, defense, point_runs in zip(configs, defenses, runs)]


def _run_group(lanes: list[_Lane], train: Dataset, test: Dataset) -> list[RunOutcome]:
    """Train, evaluate and attack one lock-step group of lanes."""
    started = time.perf_counter()
    try:
        # the attack replays only the final attack_window epochs, so the
        # trainer keeps no older records
        trained = train_lanes([lane.session for lane in lanes], train,
                              keep_epochs=lanes[0].plan.config.transcript_window)
        originals = [(metric_pair(predict(lane.session, train.features), train.labels),
                      metric_pair(predict(lane.session, test.features), test.labels))
                     for lane in lanes]
        attacks = attack_lanes(
            [AttackLane(transcript, lane.session.bottom, lane.plan.leaked, lane.plan.config,
                        lane.plan.evaluation_column)
             for lane, (transcript, _) in zip(lanes, trained)],
            train, test=test)
    except Exception as exc:
        lane = _failed_lane(exc)
        where = (lanes[lane].label if lane is not None
                 else "; ".join(l.label for l in lanes))
        raise HarnessError(f"{where}: {exc}") from exc
    share_ms = (time.perf_counter() - started) * 1e3 / len(lanes)
    return [RunOutcome(
        seed=lane.session.seed,
        attack_seed=lane.plan.config.seed,
        original_train=original_train,
        original_test=original_test,
        attack_train=attack.train_metrics,
        attack_test=attack.test_metrics,
        runtime_ms=share_ms,
    ) for lane, (original_train, original_test), attack in zip(lanes, originals, attacks)]


def _failed_lane(exc: BaseException | None) -> int | None:
    """The lane a failure names (a non-finite value is traced to its lane),
    from the exception or its causes; None when it names none."""
    while exc is not None:
        lane = getattr(exc, "lane", None)
        if lane is not None:
            return lane
        exc = exc.__cause__
    return None


def _defense_label(defense: Defense) -> str:
    name = defense_to_dict(defense)["name"]
    params = _param_string(defense)
    return f"{name} ({params})" if params else name


def sweep_defense(cfg: ExperimentConfig, variant: str, param: str,
                  values: list) -> list[ExperimentResult]:
    """One experiment per grid value of a single defense parameter. Every
    grid value is checked before any run starts."""
    if not values:
        raise HarnessError("empty parameter grid")
    return _run_points([replace(cfg, defense={"name": variant, param: value})
                        for value in values])


def sweep_extension_dims(cfg: ExperimentConfig, dims_list: list[int],
                         variants: tuple[str, ...] = ("random_extension",
                                                      "adaptive_extension")
                         ) -> list[ExperimentResult]:
    """Both extension defenses at every requested width. Every width is
    checked before any run starts."""
    if not dims_list or any(d < 1 for d in dims_list):
        raise HarnessError("dims must be a non-empty list of positive widths")
    return _run_points([replace(cfg, defense={"name": variant, "dims": int(dims)})
                        for variant in variants for dims in dims_list])


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
