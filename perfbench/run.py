"""Benchmark of `fbl`: run one workload, check its output, print its metrics.

    python3 perfbench/run.py --workload fig2-simo --seed 1 --seconds 30 --trace 0

Run from the root of a checkout. Each run starts fresh worker processes
(worker.py) with PYTHONPATH=src and the workload's FBL_THREADS: two that
only set up, to time set-up three times, then one that sets up, runs the
workload's CLI calls in whole rounds for about `--seconds`, and checks the
CSV (checks.py). With `--trace 0` the last line of standard output is a JSON
object with the end-to-end metrics; with `--trace 1` rounds alternate
between untraced and traced (tracer.py), the per-layer metrics are printed
instead, and the spans are written under `.perfbench/`.

Exits 2 without a result when the checkout holds no `src/fbl`, and 1 when a
worker fails or runs out of time.
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

import tracer
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_RUNS = 3
SETUP_TIMEOUT_S = 20.0
SLACK_S = 90.0  # checks and the last round beyond --seconds; keeps a run under 180 s


def spawn(args, env, timeout, setup_only=False):
    cmd = [
        sys.executable,
        str(HERE / "worker.py"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
    ]
    if setup_only:
        cmd.append("--setup-only")
    cmd += ["--spawned-at", repr(time.monotonic())]
    proc = subprocess.run(cmd, env=env, cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=timeout)
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited with code {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def metric(value, unit):
    return {"value": value, "unit": unit}


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (ROOT / "src" / "fbl" / "cli.py").is_file():
        print(f"error: no src/fbl under {ROOT}: run from a checkout of the repository", file=sys.stderr)
        return 2

    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    env["FBL_THREADS"] = str(workloads.build(args.workload, args.seed).threads)
    try:
        setups = [spawn(args, env, SETUP_TIMEOUT_S, setup_only=True)["setup_s"] for _ in range(SETUP_RUNS - 1)]
        res = spawn(args, env, args.seconds + SLACK_S)
    except (RuntimeError, subprocess.TimeoutExpired, json.JSONDecodeError, IndexError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    setups.append(res["setup_s"])

    for problem in res["problems"]:
        print(f"CHECK FAILED [{args.workload} seed {args.seed}]: {problem}", file=sys.stderr)
    if args.trace:
        metrics = {name: metric(value, tracer.metric_unit(name)) for name, value in res["per_layer"].items()}
    else:
        metrics = {
            "wall_s": metric(statistics.median(res["wall_s"]), "s"),
            "cpu_s": metric(statistics.median(res["cpu_s"]), "s"),
            "setup_s": metric(statistics.median(setups), "s"),
            "peak_rss_mb": metric(res["peak_rss_mb"], "MB"),
            "bound_gap_bits": metric(res["bound_gap_bits"], "bit"),
        }
    print(
        f"{args.workload} seed {args.seed}: {res['rounds']} rounds, untraced wall {[round(s, 3) for s in res['wall_s']]} s,"
        f" cpu {[round(s, 3) for s in res['cpu_s']]} s, set-up {[round(s, 3) for s in setups]} s",
        file=sys.stderr,
    )
    print(
        json.dumps(
            {
                "correct": not res["problems"],
                "attempted": res["attempted"],
                "failed": res["failed"],
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
