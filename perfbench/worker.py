"""One benchmark process: set up, run a workload's rounds for a while, check them.

Started by run.py with PYTHONPATH pointing at the checkout's `src` and
FBL_THREADS set for the workload. `--spawned-at` is the parent's
`time.monotonic()` just before the spawn, so the set-up time runs from
process start to the first CLI call. With `--setup-only` the process stops
there. Prints one JSON object on its last line of standard output; with
`--trace 1` also writes the spans to `.perfbench/` in the checkout.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import statistics
import sys
import time
from pathlib import Path

import fbl.cli
import workloads

TRACE_DIR = Path(__file__).resolve().parent.parent / ".perfbench"


def run_round(workload):
    """Run every call of the workload once: (outputs, failed, wall s, cpu s)."""
    outputs, failed = [], 0
    t0, c0 = time.perf_counter(), time.process_time()
    for call in workload.calls:
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = fbl.cli.main(list(call))
        failed += code != 0
        outputs.append(buf.getvalue())
    return outputs, failed, time.perf_counter() - t0, time.process_time() - c0


def thread_determinism(workload, outputs):
    """Rerun the calls at the other FBL_THREADS value; the CSV must not change."""
    before = os.environ.get("FBL_THREADS")
    other = "1" if workload.threads != 1 else "2"
    os.environ["FBL_THREADS"] = other
    try:
        rerun = run_round(workload)[0]
    finally:
        if before is None:
            del os.environ["FBL_THREADS"]
        else:
            os.environ["FBL_THREADS"] = before
    if rerun != outputs:
        return [f"CSV at FBL_THREADS={other} differs from FBL_THREADS={workload.threads}"]
    return []


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spawned-at", type=float, required=True)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()

    workload = workloads.build(args.workload, args.seed)
    setup_s = time.monotonic() - args.spawned_at
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    tracer = None
    if args.trace:
        import tracer as tracing

        tracer = tracing.Tracer()

    # At least two whole rounds, then more while another one of the mean
    # length still fits in the run. With tracing, rounds alternate untraced /
    # traced.
    rounds = []  # (traced, outputs, failed, wall, cpu)
    start = time.perf_counter()
    while True:
        traced = tracer is not None and len(rounds) % 2 == 1
        if traced:
            tracer.install()
        try:
            outputs, failed, wall, cpu = run_round(workload)
        finally:
            if traced:
                tracer.uninstall()
        rounds.append((traced, outputs, failed, wall, cpu))
        mean = statistics.fmean(r[3] for r in rounds)
        if len(rounds) >= 2 and time.perf_counter() - start + mean > args.seconds:
            break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    import checks

    first = rounds[0][1]
    problems = []
    for i, (traced, outputs, *_rest) in enumerate(rounds[1:], 1):
        if outputs != first:
            kind = "traced" if traced else "untraced"
            problems.append(f"round {i} ({kind}) CSV differs from round 0")
    problems += checks.check(workload, first)
    if workload.name == "outage-mt":
        problems += thread_determinism(workload, first)
    try:
        gap = checks.bound_gap_bits(workload, first)
    except (ValueError, KeyError, ZeroDivisionError) as exc:
        gap = None
        problems.append(f"no bound gap: {exc!r}")

    untraced = [r for r in rounds if not r[0]]
    result = {
        "setup_s": setup_s,
        "rounds": len(rounds),
        "attempted": len(rounds) * len(workload.calls),
        "failed": sum(r[2] for r in rounds),
        "wall_s": [r[3] for r in untraced],
        "cpu_s": [r[4] for r in untraced],
        "peak_rss_mb": peak_rss_mb,
        "bound_gap_bits": gap,
        "problems": problems,
    }
    if tracer is not None:
        traced_walls = [r[3] for r in rounds if r[0]]
        result["per_layer"] = tracing.per_layer_metrics(tracer.summary(), len(traced_walls))
        result["per_layer"]["trace.overhead_s"] = statistics.median(traced_walls) - statistics.median(
            result["wall_s"]
        )
        TRACE_DIR.mkdir(exist_ok=True)
        tracer.write(
            TRACE_DIR / f"trace-{workload.name}-seed{args.seed}.json",
            {"workload": workload.name, "seed": args.seed, "rounds": len(traced_walls)},
        )
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
