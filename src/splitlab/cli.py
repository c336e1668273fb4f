"""Command-line entry points.

Subcommands mirror the experiment lifecycle: `train` runs the split protocol
and saves the transcript plus model checkpoints, `attack` replays a saved run,
`experiment` does both end to end, the sweep commands map defense parameters
or extension widths over grids, and `baseline-mp` scores the constant-mean
predictor. Configuration comes from defaults, then an optional JSON config
file, then flags (last one wins).
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .attack import AttackError, run_attack
from .data import split_standardize
from .defense import defense_from_dict, defense_to_dict
from .harness import (
    DATASET_KEYS,
    ExperimentConfig,
    HarnessError,
    build_session,
    emit_results,
    load_dataset,
    plan_attack,
    result_rows,
    run_experiment,
    sweep_defense,
    sweep_extension_dims,
)
from .metrics import mean_value_baseline
from .nn import load_checkpoint, save_checkpoint
from .protocol import ProtocolError, Transcript, TranscriptWriter, train_split


def _parse_value(text: str):
    # JSON covers numbers, booleans, and lists; anything else stays a string
    try:
        return json.loads(text)
    except json.JSONDecodeError:
        return text


def _parse_kv(item: str) -> tuple[str, str]:
    if "=" not in item:
        raise SystemExit(f"expected KEY=VALUE, got '{item}'")
    key, value = item.split("=", 1)
    return key.strip(), value.strip()


def _subsection(node: dict, key: str, where: str) -> dict:
    """node[key], made empty when absent; a value there that is not a
    section is a one-line error naming `where` and the key."""
    child = node.setdefault(key, {})
    if not isinstance(child, dict):
        raise HarnessError(f"{where}: '{key}' is {child!r}, not a section")
    return child


def _build_config(args) -> ExperimentConfig:
    payload: dict = {}
    if getattr(args, "config", None):
        with open(args.config) as fh:
            try:
                payload = json.load(fh)
            except json.JSONDecodeError as exc:
                raise HarnessError(f"{args.config}: not JSON: {exc}") from None
        if not isinstance(payload, dict):
            raise HarnessError(f"{args.config}: a config is a JSON object, "
                               f"not a {type(payload).__name__}")
    for item in getattr(args, "set", None) or []:
        key, raw = _parse_kv(item)
        node = payload
        parts = key.split(".")
        for part in parts[:-1]:
            node = _subsection(node, part, f"--set {item}")
        node[parts[-1]] = _parse_value(raw)
    if getattr(args, "dataset", None):
        dataset = _subsection(payload, "dataset", "--dataset")
        kind = "synth" if args.dataset == "synth" else "csv"
        # the flag picks the kind; entries that only the other kind has are dropped
        payload["dataset"] = {"kind": kind, **{k: v for k, v in dataset.items()
                                              if k in DATASET_KEYS[kind]}}
        if kind == "csv":
            payload["dataset"]["path"] = args.dataset
    if getattr(args, "defense", None):
        spec = {"name": args.defense}
        for item in getattr(args, "param", None) or []:
            key, raw = _parse_kv(item)
            spec[key] = _parse_value(raw)
        payload["defense"] = spec
    if getattr(args, "seed", None) is not None:
        _subsection(payload, "training", "--seed")["seed"] = args.seed
    if getattr(args, "repeats", None) is not None:
        payload["repeats"] = args.repeats
    return ExperimentConfig.from_dict(payload)


def _print_rows(rows: list[dict]) -> None:
    header = f"{'dataset':<18} {'defense':<22} {'split':<6} {'task':<9} {'mae':>9} {'mse':>9}"
    print(header)
    print("-" * len(header))
    for row in rows:
        print(f"{row['dataset']:<18} {row['defense']:<22} {row['split']:<6} "
              f"{row['task']:<9} {row['mae']:>9.4f} {row['mse']:>9.4f}")


def _emit(results, args) -> None:
    rows = []
    for result in results:
        rows.extend(result_rows(result))
    _print_rows(rows)
    if args.out:
        emit_results(results, args.format, args.out,
                     include_timing=getattr(args, "timing", False))
        print(f"\nwrote {args.out}")


def cmd_train(args) -> int:
    cfg = _build_config(args)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)

    raw = load_dataset(cfg)
    train, _ = split_standardize(raw, ratio=cfg.split_ratio, seed=cfg.seed)
    defense = defense_from_dict(cfg.defense, cut_dim=cfg.cut_dim, seed=cfg.seed)
    session = build_session(cfg, defense, raw.d, cfg.seed)
    # records stream to disk as they are made; a run that fails leaves no file
    with TranscriptWriter(out / "transcript.bin") as transcript:
        _, _, trace = train_split(session, train, sink=transcript.append)

    save_checkpoint(session.bottom, out / "bottom.json")
    save_checkpoint(session.top, out / "top.json")
    manifest = {
        "config": cfg.to_dict(),
        "defense_resolved": defense_to_dict(defense),
        "files": {"transcript": "transcript.bin", "bottom": "bottom.json",
                  "top": "top.json"},
        "final_train_loss": trace[-1],
    }
    with open(out / "manifest.json", "w") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
    print(f"trained {cfg.epochs} epochs; final loss {trace[-1]:.6f}; "
          f"artifacts in {out}")
    return 0


def _manifest_entry(manifest, path, *keys):
    """manifest[keys[0]][keys[1]]...; a missing key is a one-line error
    naming the manifest and the key."""
    node = manifest
    for key in keys:
        if not isinstance(node, dict) or key not in node:
            raise HarnessError(f"{path}: missing '{key}'")
        node = node[key]
    return node


def cmd_attack(args) -> int:
    run_dir = Path(args.run)
    manifest_path = run_dir / "manifest.json"
    with open(manifest_path) as fh:
        try:
            manifest = json.load(fh)
        except json.JSONDecodeError as exc:
            raise HarnessError(f"{manifest_path}: not JSON: {exc}") from None
    entries = [_manifest_entry(manifest, manifest_path, *keys)
               for keys in (("config",), ("defense_resolved",), ("files", "bottom"),
                            ("files", "transcript"))]
    config, defense_spec, bottom_file, transcript_file = entries
    try:
        cfg = ExperimentConfig.from_dict(config)
    except HarnessError as exc:
        raise HarnessError(f"{manifest_path}: {exc}") from None
    try:
        defense = defense_from_dict(defense_spec, cut_dim=cfg.cut_dim, seed=cfg.seed)
    except ValueError as exc:
        raise HarnessError(f"{manifest_path}: bad defense {defense_spec!r}: {exc}") from None

    raw = load_dataset(cfg)
    train, test = split_standardize(raw, ratio=cfg.split_ratio, seed=cfg.seed)
    bottom = load_checkpoint(run_dir / bottom_file)
    # every header is checked, but only the replayed epochs are read
    transcript = Transcript.load(run_dir / transcript_file, last_epochs=cfg.attack_window)

    plan = plan_attack(cfg, defense, train, cfg.seed)
    result = run_attack(transcript, bottom, train, plan.leaked, plan.config,
                        test=test, evaluation_column=plan.evaluation_column)

    mp_train = mean_value_baseline(train.labels, train.labels)
    summary = {
        "train": {"mae": result.train_metrics.mae, "mse": result.train_metrics.mse},
        "test": {"mae": result.test_metrics.mae, "mse": result.test_metrics.mse},
        "mean_prediction_train": {"mae": mp_train.mae, "mse": mp_train.mse},
        "label_column": result.label_column,
        "loss_trace": result.loss_trace,
        "inversion_trace": result.inversion_trace,
        "inferred_labels": result.inferred_labels[:, 0].tolist(),
    }
    print(f"attack train MAE/MSE {result.train_metrics.mae:.4f}/{result.train_metrics.mse:.4f}"
          f"  (mean prediction {mp_train.mae:.4f}/{mp_train.mse:.4f})")
    print(f"attack test  MAE/MSE {result.test_metrics.mae:.4f}/{result.test_metrics.mse:.4f}")
    if args.out:
        with open(args.out, "w") as fh:
            json.dump(summary, fh, indent=2, sort_keys=True)
        print(f"wrote {args.out}")
    return 0


def cmd_experiment(args) -> int:
    cfg = _build_config(args)
    result = run_experiment(cfg)
    _emit([result], args)
    return 0


def cmd_sweep_defense(args) -> int:
    if not args.param:
        raise SystemExit("sweep-defense needs --param NAME=V1,V2,...")
    if len(args.param) != 1:
        raise SystemExit("sweep-defense sweeps exactly one parameter")
    key, raw = _parse_kv(args.param[0])
    values = [_parse_value(v) for v in raw.split(",") if v != ""]
    # --param holds the grid, which each sweep point sets on its own
    cfg = _build_config(argparse.Namespace(**{**vars(args), "param": None}))
    results = sweep_defense(cfg, args.defense or "label_noise", key, values)
    _emit(results, args)
    return 0


def cmd_sweep_dims(args) -> int:
    cfg = _build_config(args)
    try:
        dims = [int(v) for v in args.dims.split(",") if v != ""]
    except ValueError:
        raise HarnessError(f"--dims: expected comma-separated whole numbers, "
                           f"got '{args.dims}'") from None
    variants = tuple(v.strip() for v in args.variants.split(","))
    results = sweep_extension_dims(cfg, dims, variants)
    _emit(results, args)
    return 0


def cmd_baseline_mp(args) -> int:
    cfg = _build_config(args)
    raw = load_dataset(cfg)
    train, test = split_standardize(raw, ratio=cfg.split_ratio, seed=cfg.seed)
    tr = mean_value_baseline(train.labels, train.labels)
    te = mean_value_baseline(train.labels, test.labels)
    print(f"{raw.name}: mean-prediction train {tr.mae:.4f}/{tr.mse:.4f} "
          f"test {te.mae:.4f}/{te.mse:.4f}")
    if args.out:
        payload = {"dataset": raw.name,
                   "train": {"mae": tr.mae, "mse": tr.mse},
                   "test": {"mae": te.mae, "mse": te.mse}}
        with open(args.out, "w") as fh:
            json.dump(payload, fh, indent=2, sort_keys=True)
        print(f"wrote {args.out}")
    return 0


def _add_common(parser: argparse.ArgumentParser, with_out_file=True) -> None:
    parser.add_argument("--config", help="JSON config file")
    parser.add_argument("--dataset", help="CSV path, or 'synth'")
    parser.add_argument("--defense", help="defense name (e.g. none, label-noise, "
                        "gradient-compression, random-extension, adaptive-extension)")
    parser.add_argument("--param", action="append",
                        help="defense parameter KEY=VALUE (repeatable)")
    parser.add_argument("--set", action="append", metavar="SECTION.KEY=VALUE",
                        help="override any config entry (repeatable)")
    parser.add_argument("--seed", type=int)
    parser.add_argument("--repeats", type=int)
    if with_out_file:
        parser.add_argument("--out", help="output file")
        parser.add_argument("--format", choices=("csv", "json"), default="csv")
        parser.add_argument("--timing", action="store_true",
                            help="include wall-clock runtimes in emitted files "
                                 "(off by default so identical runs emit identical bytes)")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="splitlab",
        description="Split-learning label-privacy lab: train, attack, defend, measure.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("train", help="train a split session; save transcript and checkpoints")
    _add_common(p, with_out_file=False)
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("attack", help="run the label-inference attack on a saved run")
    p.add_argument("--run", required=True, help="directory written by `splitlab train`")
    p.add_argument("--out", help="write the attack summary JSON here")
    p.set_defaults(func=cmd_attack)

    p = sub.add_parser("experiment", help="end-to-end train + attack + evaluate")
    _add_common(p)
    p.set_defaults(func=cmd_experiment)

    p = sub.add_parser("sweep-defense", help="sweep one defense parameter over a grid")
    _add_common(p)
    p.set_defaults(func=cmd_sweep_defense)

    p = sub.add_parser("sweep-dims", help="sweep label-extension widths")
    _add_common(p)
    p.add_argument("--dims", required=True, help="comma-separated widths, e.g. 2,4,8")
    p.add_argument("--variants", default="random_extension,adaptive_extension")
    p.set_defaults(func=cmd_sweep_dims)

    p = sub.add_parser("baseline-mp", help="score the constant-mean predictor")
    _add_common(p)
    p.set_defaults(func=cmd_baseline_mp)

    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (HarnessError, ProtocolError, AttackError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
