"""splitlab benchmark command.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1 [--smoke]

Runs one workload (see workloads.py and README.md) in its own process for
about S seconds and prints, as the last line of standard output, one JSON
object: correct, attempted, failed and metrics. Untraced (--trace 0) the
metrics are setup_s, wall_s and peak_rss_mb; traced (--trace 1) they are the
per-layer figures, and the span file and layer table land in
.perfbench_out/trace/. --smoke runs toy sizes. Exits non-zero, printing no
result, when the workload cannot run.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("attack_main", "defense_sweep_small", "paper_csv_cli")
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_SAMPLES = 7
DEADLINE_S = 170.0


class BenchError(RuntimeError):
    pass


def _setup_seconds(cmd: list[str], env: dict) -> float:
    """Fresh process start to `ready`: interpreter, imports and inputs."""
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, env=env, cwd=ROOT, text=True)
    try:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - t0
        proc.communicate(timeout=60)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if proc.returncode != 0 or line.strip() != "ready":
        raise BenchError(f"set-up process failed (exit {proc.returncode})")
    return elapsed


def run(args) -> dict:
    started = time.perf_counter()
    env = dict(os.environ, **{v: "1" for v in THREAD_VARS})
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed)]
    if args.smoke:
        cmd.append("--smoke")

    setup = []
    if not args.trace:
        for _ in range(1 if args.smoke else SETUP_SAMPLES):
            setup.append(_setup_seconds(cmd + ["--setup-only"], env))

    timeout = DEADLINE_S - (time.perf_counter() - started)
    try:
        proc = subprocess.run(cmd + ["--seconds", str(args.seconds), "--trace", str(args.trace)],
                              stdout=subprocess.PIPE, env=env, cwd=ROOT, text=True,
                              timeout=timeout)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"workload process exceeded {timeout:.0f} s") from exc
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"workload process failed (exit {proc.returncode})")
    out = json.loads(lines[-1])

    if args.trace:
        from spans import PER_LAYER

        metrics = {n: {"value": out["metrics"][n], "unit": u} for n, u in PER_LAYER}
    else:
        metrics = {
            "setup_s": {"value": statistics.median(setup), "unit": "s"},
            "wall_s": {"value": out["metrics"]["wall_s"], "unit": "s"},
            "peak_rss_mb": {"value": out["metrics"]["peak_rss_mb"], "unit": "MB"},
        }
    print(f"{args.workload}: rounds of " + ", ".join(f"{t:.3f}" for t in out["round_s"]) + " s",
          file=sys.stderr)
    return {"correct": out["correct"], "attempted": out["attempted"],
            "failed": out["failed"], "metrics": metrics}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true", help="toy sizes, one set-up sample")
    args = ap.parse_args(argv)
    try:
        result = run(args)
    except (BenchError, OSError, ValueError, KeyError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
