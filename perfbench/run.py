"""Benchmark of maxwell2d's convergence campaigns.

    python3 perfbench/run.py --workload sg-ps --seed 1 --seconds 20 --trace 0

Run from the root of a checkout.  Each workload is a closed loop with one
client: one process runs the workload's campaigns back to back, through the
public entry points ``study.run_study`` and ``cli.cli_main`` only.  The seed
is the ARPACK start-vector seed.  BLAS threads stay at their default.

``--trace 0`` prints the end-to-end metrics: set-up time (median of fresh
interpreters importing the package and finishing a tiny dense and a tiny
shift-invert solve), wall time of one pass over the workload's campaigns
(median of the passes), peak resident memory of the workload process and
the largest relative error at the finest N.

``--trace 1`` prints the per-layer metrics of a traced run: self times of
the spans recorded around each layer's entry points, layer counters, and
the tracing overhead.  It checks that self times plus the untraced remainder
add up to the traced wall time and that counters repeat exactly across two
traced passes.  Spans go to ``.perfbench/spans-<workload>-seed<seed>.jsonl``.

Every campaign's table is checked against the published digits; a failed
check or an exception counts as a failed operation and the exit code is 1.
Each run appends its result and environment to ``.perfbench/results.jsonl``.
The last line of output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.
"""
from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import time

from workloads import WORKLOADS

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT_DIR = os.path.join(ROOT, ".perfbench")
SETUP_ONLY_PROCESSES = 4   # plus the workload process's own set-up
TIME_LIMIT_S = 170.0


class WorkerFailed(Exception):
    pass


def worker(args: list, deadline: float) -> dict:
    """Run worker.py in a fresh interpreter; its last output line is JSON."""
    try:
        proc = subprocess.run(
            [sys.executable, os.path.join(HERE, "worker.py"), *args],
            cwd=ROOT, capture_output=True, text=True,
            timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired as exc:
        raise WorkerFailed(f"worker {args} timed out") from exc
    if proc.returncode != 0:
        raise WorkerFailed(f"worker {args} exited {proc.returncode}:\n"
                           f"{proc.stderr[-3000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def git_commit() -> str:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def measure(args) -> dict:
    deadline = time.monotonic() + TIME_LIMIT_S
    run_args = ["run", args.workload, str(args.seed), str(args.seconds),
                str(args.trace)]
    if args.trace:
        return worker(run_args, deadline)
    setups = [worker(["setup"], deadline)["setup_s"]
              for _ in range(SETUP_ONLY_PROCESSES)]
    result = worker(run_args, deadline)
    setups.append(result["setup_s"])
    result["metrics"] = {
        "setup_s": statistics.median(setups),
        "wall_s": statistics.median(result["walls"]),
        "peak_rss_mb": result["peak_rss_mb"],
        "finest_rel_err": result["finest_rel_err"],
    }
    result["setup_samples"] = setups
    return result


def declared_metrics(trace: int) -> dict:
    """Metric name -> unit, in the order BENCHMARK.json declares them."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    return {m["name"]: m["unit"]
            for m in bench["per_layer" if trace else "end_to_end"]}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "maxwell2d",
                                       "__init__.py")):
        print(f"error: no maxwell2d package under {ROOT}/src",
              file=sys.stderr)
        return 2
    try:
        result = measure(args)
    except WorkerFailed as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    attempted = result["attempted"]
    failed = len(result["failures"])
    units = declared_metrics(args.trace)
    if set(result["metrics"]) != set(units):
        print("error: measured metrics differ from BENCHMARK.json: "
              f"{sorted(set(result['metrics']) ^ set(units))}",
              file=sys.stderr)
        return 1
    metrics = {name: result["metrics"][name] for name in units}
    for message in result["failures"] + result["problems"]:
        print(f"FAILED {message}", file=sys.stderr)
    env = dict(result["env"], commit=git_commit(), seed=args.seed,
               workload=args.workload, seconds=args.seconds, trace=args.trace)
    print("env " + json.dumps(env))
    for name, value in metrics.items():
        print(f"{name:24s} {value:.6g} {units[name]}")
    print(f"{'fail_ratio':24s} {failed / attempted:.6g} ({failed}/{attempted} "
          "campaign calls)")
    correct = failed == 0 and not result["problems"]
    os.makedirs(OUT_DIR, exist_ok=True)
    with open(os.path.join(OUT_DIR, "results.jsonl"), "a") as f:
        f.write(json.dumps({"env": env, "correct": correct,
                            "attempted": attempted, "failed": failed,
                            "result": {k: v for k, v in result.items()
                                       if k != "env"}}) + "\n")
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": value if math.isfinite(value) else None,
                           "unit": units[name]}
                    for name, value in metrics.items()}}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
