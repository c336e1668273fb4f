"""One workload in one process: set-up, timed rounds, output checks.

Started by run.py. Prints `ready` once the workload's inputs are built; with
--setup-only it exits there. Otherwise it repeats rounds of the workload for
about --seconds seconds, checks every round's outputs, and prints one JSON
line: correct, attempted, failed, the round times and its metrics (wall_s and
peak_rss_mb untraced, the per-layer figures traced).
"""

from __future__ import annotations

import argparse
import contextlib
import json
import resource
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".perfbench_out"


def _import_program() -> None:
    src = ROOT / "src"
    if not (src / "splitlab" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no splitlab sources under {src}")
    sys.path.insert(0, str(src))


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=0.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true")
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    _import_program()
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload](args.smoke)
    workdir = OUT / args.workload
    workdir.mkdir(parents=True, exist_ok=True)
    seed = args.seed % 2**32
    inputs = workload.setup(seed, workdir)
    print("ready", flush=True)
    if args.setup_only:
        return 0

    tracer = None
    span = lambda name: contextlib.nullcontext()  # noqa: E731
    if args.trace:
        from spans import Tracer, instrument

        tracer = Tracer()
        instrument(tracer)
        span = tracer.span

    walls: list[float] = []
    attempted = failed = 0
    problems: list[str] = []
    started = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        with span("bench.round"):
            a, f, outputs = workload.round(inputs, span)
        walls.append(time.perf_counter() - t0)
        attempted += a
        failed += f
        problems += [p for p in workload.check(inputs, outputs) if p not in problems]
        # stop where the next round would end further past the deadline than
        # this one ends before it
        if time.perf_counter() - started + 0.5 * statistics.fmean(walls) >= args.seconds:
            break
    for p in problems:
        print(f"check failed: {p}", file=sys.stderr)

    if tracer is None:
        # The mean, not the median: this machine's speed shifts in spells of
        # tens of seconds, and over ten-seed sets the mean round varied less
        # (quartile spread 0.13 to 0.21) than the median round (0.15 to 0.26).
        metrics = {
            "wall_s": statistics.fmean(walls),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
    else:
        from spans import per_layer_metrics

        trace_dir = OUT / "trace"
        trace_dir.mkdir(exist_ok=True)
        stem = trace_dir / f"{args.workload}-seed{args.seed}"
        stats = tracer.write(stem, [
            f"workload {args.workload} seed {args.seed} rounds {len(walls)}",
            f"traced wall_s {statistics.fmean(walls):.4f}",
        ])
        metrics = per_layer_metrics(stats, tracer.counts, len(walls))
        print(f"spans: {stem}.npz, layer table: {stem}-layers.txt", file=sys.stderr)
    print(json.dumps({"correct": not problems, "attempted": attempted, "failed": failed,
                      "round_s": walls, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
