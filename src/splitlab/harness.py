"""End-to-end experiment orchestration.

One experiment = load data, train the split protocol under a defense, replay
the transcript through the attack, and score the original task, the attack,
and the constant-mean baseline on both splits. Repeats run with derived seeds
and best-of selection; sweeps map a defense parameter or the extension width
over a grid of values. The runs of an experiment or sweep that can share
one step per batch are trained and attacked in lock-step.
"""

from __future__ import annotations

import csv
import json
import time
from dataclasses import asdict, dataclass, field, fields, replace

import numpy as np

from .attack import AttackConfig, AttackLane, attack_lanes, run_attack  # noqa: F401
from .autograd import ACTIVATIONS
from .data import (
    Dataset,
    LeakedSet,
    load_csv,
    sample_leaked,
    split_standardize,
    synth_regression,
)
from .defense import FIELD_PARSERS, Defense, defense_from_dict
from .metrics import MetricPair, mean_value_baseline, metric_pair
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
    "DATASET_KEYS",
]

# derived attack seeds: run seed XOR this constant, for independent streams
ATTACK_SEED_XOR = 0x9E3779B9

ATTACK_READOUTS = ("secret_column", "leak_selected")

# The config schema: each key of a config file or of `--set` (a dotted key
# is an entry of a section) and the ExperimentConfig field it holds, in the
# order to_dict writes them. The dataset keys depend on dataset.kind, which
# to_dict derives from dataset_path; to_dict leaves out an empty name.
DATASET_KEYS = {
    "synth": {"n": "synth_n", "d": "synth_d", "noise_std": "synth_noise_std",
              "name": "dataset_name"},
    "csv": {"path": "dataset_path", "label_column": "label_column", "header": "csv_header",
            "name": "dataset_name"},
}
_KEYS = {
    "split_ratio": "split_ratio",
    "model.bottom_hidden": "bottom_hidden", "model.top_hidden": "top_hidden",
    "model.cut_dim": "cut_dim", "model.activation": "activation",
    "training.lr": "lr", "training.epochs": "epochs", "training.batch_size": "batch_size",
    "training.seed": "seed",
    "defense": "defense",
    "attack.alpha": "attack_alpha", "attack.lr": "attack_lr", "attack.epochs": "attack_epochs",
    "attack.window": "attack_window", "attack.leak_fraction": "leak_fraction",
    "attack.knows_extension": "attacker_knows_extension", "attack.readout": "attack_readout",
    "repeats": "repeats",
}
_SECTIONS = {"dataset"} | {key.partition(".")[0] for key in _KEYS if "." in key}


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
        # parse each value by its field's annotation (defense.FIELD_PARSERS),
        # whether it came from a file or from code; defense_from_dict below
        # checks the defense whole
        for f in fields(self):
            if f.name == "defense":
                continue
            try:
                value = FIELD_PARSERS[f.type](getattr(self, f.name), _FIELD_KEYS[f.name])
            except ValueError as exc:
                raise HarnessError(f"bad configuration: {exc}") from None
            object.__setattr__(self, f.name, value)
        for name, bound in _LOWER_BOUNDS.items():
            value = getattr(self, name)
            for entry in value if isinstance(value, tuple) else (value,):
                if entry < bound:
                    raise HarnessError(f"bad configuration: {_FIELD_KEYS[name]} must be "
                                       f">= {bound}, got {entry}")
        if self.attack_readout not in ATTACK_READOUTS:
            raise HarnessError(
                f"attack_readout must be one of {ATTACK_READOUTS}, got '{self.attack_readout}'")
        if self.activation not in ACTIVATIONS:
            raise HarnessError(f"bad configuration: model.activation must be one of "
                               f"{ACTIVATIONS}, got {self.activation!r}")
        if not 0 < self.split_ratio < 1:
            raise HarnessError(f"bad configuration: split_ratio must lie in (0, 1), "
                               f"got {self.split_ratio}")
        for name in ("lr", "attack_lr"):
            if not getattr(self, name) > 0:
                raise HarnessError(f"bad configuration: {_FIELD_KEYS[name]} must be > 0, "
                                   f"got {getattr(self, name)}")
        if not 0 < self.leak_fraction <= 1:
            raise HarnessError(f"bad configuration: attack.leak_fraction must lie in (0, 1], "
                               f"got {self.leak_fraction}")
        try:
            defense_from_dict(self.defense, cut_dim=self.cut_dim, seed=self.seed)
        except (TypeError, ValueError) as exc:
            raise HarnessError(f"bad defense {self.defense!r}: {exc}") from None

    @classmethod
    def paper_profile(cls, dataset_path: str, batch_size: int = 128, **overrides) -> "ExperimentConfig":
        """Full-scale settings for a real CSV: 100 training epochs, 50 attack
        epochs, 1% leak, learning rate 0.01."""
        base = dict(dataset_path=dataset_path, batch_size=batch_size, attack_epochs=50,
                    attack_window=5)
        base.update(overrides)
        return cls(**base)

    def to_dict(self) -> dict:
        kind = "synth" if self.dataset_path is None else "csv"
        payload: dict = {"dataset": {"kind": kind}}
        for key, name in _config_keys(kind).items():
            value = getattr(self, name)
            if name == "dataset_name" and not value:
                continue
            if isinstance(value, (tuple, dict)):
                value = list(value) if isinstance(value, tuple) else dict(value)
            section, _, leaf = key.rpartition(".")
            (payload.setdefault(section, {}) if section else payload)[leaf] = value
        return payload

    @classmethod
    def from_dict(cls, payload: dict) -> "ExperimentConfig":
        """The config to_dict wrote. Each key is looked up in the schema
        for its dataset kind (synth when dataset.kind is absent) and its
        value handed to its field, which __post_init__ parses; absent keys
        keep their defaults. A malformed entry (a section that is not an
        object, an unknown key, a key of the other dataset kind, a csv
        dataset without a path, a value its rule refuses) raises HarnessError
        naming its key."""
        if not isinstance(payload, dict):
            raise HarnessError(f"bad configuration: expected an object, got {payload!r}")
        entries, kw = {}, {}
        try:
            for key, value in payload.items():
                if key in _SECTIONS:
                    section = FIELD_PARSERS["dict"](value, key)
                    entries.update((f"{key}.{leaf}", entry) for leaf, entry in section.items())
                elif "." in str(key):  # a section entry written at the top level
                    raise ValueError(f"{key} is not a config key")
                elif key == "defense":  # an object, whose entries the defense checks
                    entries[key] = FIELD_PARSERS["dict"](value, key)
                else:
                    entries[key] = value
            kind = entries.pop("dataset.kind", "synth")
            if kind not in tuple(DATASET_KEYS):
                raise ValueError(f"dataset.kind must be one of {tuple(DATASET_KEYS)}, "
                                 f"got {kind!r}")
            if kind == "csv" and entries.get("dataset.path") is None:
                raise ValueError("a csv dataset needs dataset.path")
            keys = _config_keys(kind)
            for key, value in entries.items():
                if key not in keys:
                    raise ValueError(f"{key} is not a config key for a {kind} dataset")
                kw[keys[key]] = value
        except ValueError as exc:
            raise HarnessError(f"bad configuration: {exc}") from None
        return cls(**kw)


def _config_keys(kind: str) -> dict[str, str]:
    """Every key of a config whose dataset is `kind`, mapped to its field."""
    return {**{f"dataset.{key}": name for key, name in DATASET_KEYS[kind].items()},
            **_KEYS}


# each ExperimentConfig field's key, which its errors name
_FIELD_KEYS = {name: key for kind in DATASET_KEYS for key, name in _config_keys(kind).items()}

# the least value of each numeric field with one, checked before any compute
# (for a tuple, of each entry)
_LOWER_BOUNDS = {
    "synth_n": 2, "synth_d": 1, "synth_noise_std": 0,
    "bottom_hidden": 1, "top_hidden": 1, "cut_dim": 1,
    "epochs": 1, "batch_size": 1, "seed": 0,
    "attack_alpha": 0, "attack_epochs": 1, "attack_window": 1,
    "repeats": 1,
}


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
        """The repeat with the lowest original-task train MAE; ties go to the
        earliest, as min keeps the first of equal keys."""
        return min(self.runs, key=lambda run: run.original_train.mae)

    @property
    def best_attack(self) -> RunOutcome:
        """Attacker-optimal repeat (lowest attack train MAE); ties go to the
        earliest."""
        return min(self.runs, key=lambda run: run.attack_train.mae)


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
    top = build_network([cfg.cut_dim, *cfg.top_hidden, defense.output_dim],
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
    width = defense.output_dim if cfg.attacker_knows_extension else 1
    config = AttackConfig(
        alpha=cfg.attack_alpha,
        lr=cfg.attack_lr,
        epochs=cfg.attack_epochs,
        seed=attack_seed,
        surrogate_dims=[cfg.cut_dim, *cfg.top_hidden, width],
        activation=cfg.activation,
    )
    evaluation_column = None
    if cfg.attack_readout == "secret_column" and cfg.attacker_knows_extension:
        evaluation_column = defense.label_column
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

    Each (point, repeat) pair is a lane. Lanes whose top models have one
    width train and are attacked in lock-step, whatever their defense kinds
    (see train_lanes and attack_lanes), and each lane computes exactly what
    it would alone. A run's runtime_ms is its lock-step group's wall time
    divided by the group's lane count; a result's runtime_ms is the wall
    time of the whole call divided by the number of configs.
    """
    started = time.perf_counter()
    cfg = configs[0]
    raw = load_dataset(cfg)
    train, test = split_standardize(raw, ratio=cfg.split_ratio, seed=cfg.seed)
    if cfg.batch_size > train.n:
        raise HarnessError(f"batch size {cfg.batch_size} exceeds the {train.n} training samples")
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
            groups.setdefault(defense.output_dim, []).append(lane)

    runs: list[list[RunOutcome | None]] = [[None] * c.repeats for c in configs]
    for lanes in groups.values():
        for lane, outcome in zip(lanes, _run_group(lanes, train, test, cfg.attack_window)):
            runs[lane.point][lane.run] = outcome

    mp_train = mean_value_baseline(train.labels, train.labels)
    mp_test = mean_value_baseline(train.labels, test.labels)
    runtime_ms = (time.perf_counter() - started) * 1e3 / len(configs)
    return [ExperimentResult(config=c, dataset_name=raw.name, defense=defense,
                             runs=tuple(point_runs), mp_train=mp_train, mp_test=mp_test,
                             runtime_ms=runtime_ms)
            for c, defense, point_runs in zip(configs, defenses, runs)]


def _run_group(lanes: list[_Lane], train: Dataset, test: Dataset,
               window: int) -> list[RunOutcome]:
    """Train, evaluate and attack one lock-step group of lanes; the attack
    replays the final `window` training epochs, the only records the trainer
    keeps."""
    started = time.perf_counter()
    try:
        trained = train_lanes([lane.session for lane in lanes], train, keep_epochs=window)
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
    params = _param_string(defense)
    return f"{defense.name} ({params})" if params else defense.name


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
    if not dims_list:
        raise HarnessError("empty dims grid")
    return _run_points([replace(cfg, defense={"name": variant, "dims": dims})
                        for variant in variants for dims in dims_list])


# ------------------------------------------------------------------ emission

_COLUMNS = ["dataset", "defense", "params", "split", "task", "mae", "mse",
            "seed", "runtime_ms"]


def _param_string(defense: Defense) -> str:
    params = asdict(defense)
    return ";".join(f"{k}={params[k]}" for k in sorted(params))


def result_rows(result: ExperimentResult, include_timing: bool = False) -> list[dict]:
    """Flatten one experiment into Table-style rows: train/test x
    original/attack plus the constant-mean baseline."""
    name = result.defense.name
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
