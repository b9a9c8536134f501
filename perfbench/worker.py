"""One benchmark process: set up, then run a workload in a closed loop.

Started by ``run.py`` in a fresh interpreter, so that the import and the
first eigensolve are timed as set-up and the peak resident memory is this
workload's alone.  Prints one JSON object as its last line of output.

    python3 perfbench/worker.py setup
    python3 perfbench/worker.py run WORKLOAD SEED SECONDS TRACE
"""
import time

T0 = time.perf_counter()

import ctypes  # noqa: E402
import glob  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import traceback  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT_DIR = os.path.join(ROOT, ".perfbench")
sys.path.insert(0, os.path.join(ROOT, "src"))

import spans  # noqa: E402
import workloads  # noqa: E402

MIN_ITERATIONS = 3
MAX_ITERATION_START_S = 110.0   # no new iteration after this much time
SELF_CHECK_TOL = 0.05
# Counters that must repeat exactly between two traced iterations.
STABLE_COUNTERS = ("meshgen.triangles", "fem.n_scalar", "system.n_reduced",
                   "system.nnz_A", "system.nnz_M", "eig.solve_calls",
                   "eig.dense_calls", "eig.pairs")


def set_up():
    """Import the package from this checkout and pay the one-off costs of
    a first dense and a first shift-invert eigensolve."""
    import maxwell2d
    expected = os.path.join(ROOT, "src", "maxwell2d")
    if os.path.dirname(os.path.abspath(maxwell2d.__file__)) != expected:
        raise RuntimeError(f"imported {maxwell2d.__file__}, not {expected}")
    workloads.setup_solves(maxwell2d)
    return maxwell2d, time.perf_counter() - T0


def blas_info() -> list:
    """Each OpenBLAS library shipped with numpy and scipy, with its thread
    count as the library reports it."""
    import numpy
    import scipy
    found = []
    for pkg in (numpy, scipy):
        libdir = os.path.join(os.path.dirname(os.path.dirname(pkg.__file__)),
                              f"{pkg.__name__}.libs")
        for path in sorted(glob.glob(os.path.join(libdir, "*openblas*"))):
            lib = ctypes.CDLL(path)
            threads = None
            for fn in ("scipy_openblas_get_num_threads64_",
                       "scipy_openblas_get_num_threads",
                       "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
                if hasattr(lib, fn):
                    getter = getattr(lib, fn)
                    getter.restype = ctypes.c_int
                    threads = getter()
                    break
            found.append({"lib": os.path.basename(path), "threads": threads})
    return found


def environment() -> dict:
    import numpy
    import scipy
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "blas": blas_info(),
        "blas_env": {k: os.environ[k] for k in (
            "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
            if k in os.environ},
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "python": sys.version.split()[0],
    }


def run_iteration(campaigns, tracer=None):
    """All campaigns once, back to back.  Returns the wall time, the largest
    finest-N relative error and one failure message per failed campaign."""
    errors, failures = [], []
    start = time.perf_counter()
    for name, campaign in campaigns:
        if tracer is not None:
            tracer.campaign = name
        try:
            outcome = campaign()
        except Exception:  # noqa: BLE001 - a failed campaign is counted
            failures.append(f"{name}: {traceback.format_exc(limit=3)}")
            continue
        errors.append(outcome.finest_rel_err)
        if outcome.violations:
            failures.append(f"{name}: " + "; ".join(outcome.violations))
    wall = time.perf_counter() - start
    return wall, max(errors, default=float("nan")), failures


def layer_metrics(tracer, iteration, wall):
    """Per-layer metrics of one traced iteration, and the problems found by
    checking that self times plus the untraced remainder make up `wall`."""
    recorded = [s for s in tracer.spans if s.iteration == iteration]
    self_s = spans.self_times(recorded)
    metrics = {f"{hook[2]}_s": 0.0 for hook in spans.HOOKS}
    for s in recorded:
        metrics[f"{s.name}_s"] += self_s[s.id]
    # the export is reported whole, nested re-solve included
    metrics["cli.export_s"] = sum(s.end - s.start for s in recorded
                                  if s.name == "cli.export")
    untraced = wall - sum(s.end - s.start for s in recorded
                          if s.parent is None)
    total = sum(self_s.values()) + untraced
    problems = []
    if abs(total - wall) > SELF_CHECK_TOL * wall:
        problems.append(f"self times + remainder = {total:.4f} s, "
                        f"traced wall = {wall:.4f} s")
    metrics["trace.untraced_s"] = untraced
    metrics["trace.wall_s"] = wall
    return metrics, problems


def run_traced(maxwell2d, campaigns, workload, seed):
    """A warm-up iteration, then traced, untraced and traced again, all with
    the same seed.  The untraced one sits between the traced ones so that
    a drift over the run is not taken for tracing overhead."""
    tracer = spans.Tracer(workload)
    failures, per_iteration, counters, problems = [], [], [], []
    _wall, _err, fails = run_iteration(campaigns)
    failures += fails
    for iteration in (1, 2):
        tracer.iteration = iteration
        tracer.counters.clear()
        tracer.install(maxwell2d)
        try:
            wall, _err, fails = run_iteration(campaigns, tracer)
        finally:
            tracer.uninstall()
        failures += fails
        counters.append(dict(tracer.counters))
        metrics, found = layer_metrics(tracer, iteration, wall)
        per_iteration.append(metrics)
        problems += found
        if iteration == 1:
            wall_plain, _err, fails = run_iteration(campaigns)
            failures += fails
    for name in STABLE_COUNTERS:
        a, b = (c.get(name, 0) for c in counters)
        if a != b:
            problems.append(f"counter {name} differs between traced runs: "
                            f"{a} != {b}")
    metrics = {k: statistics.median(m[k] for m in per_iteration)
               for k in per_iteration[0]}
    for name in spans.COUNTERS:
        metrics[name] = counters[0].get(name, 0)
    metrics["trace.overhead_s"] = metrics["trace.wall_s"] - wall_plain
    tracer.dump(os.path.join(OUT_DIR, f"spans-{workload}-seed{seed}.jsonl"))
    return {"attempted": 4 * len(campaigns), "failures": failures,
            "problems": problems, "metrics": metrics}


def run_plain(campaigns, seconds):
    """Iterations in a closed loop, at least MIN_ITERATIONS and then until
    `seconds` have passed, each timed whole."""
    walls, errors, failures, attempted = [], [], [], 0
    start = time.perf_counter()
    while len(walls) < MIN_ITERATIONS or \
            time.perf_counter() - start < seconds:
        elapsed = time.perf_counter() - start
        if walls and elapsed + walls[-1] > MAX_ITERATION_START_S:
            break
        wall, err, fails = run_iteration(campaigns)
        attempted += len(campaigns)
        failures += fails
        walls.append(wall)
        errors.append(err)
        if fails:
            break
    return {"attempted": attempted, "failures": failures, "problems": [],
            "walls": walls, "finest_rel_err": max(errors)}


def main(argv):
    maxwell2d, setup_s = set_up()
    if argv[0] == "setup":
        return {"setup_s": setup_s}
    workload, seed, seconds, trace = argv[1], int(argv[2]), float(argv[3]), \
        argv[4] == "1"
    os.makedirs(OUT_DIR, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT_DIR) as scratch:
        campaigns = workloads.WORKLOADS[workload](maxwell2d, seed, scratch)
        if trace:
            result = run_traced(maxwell2d, campaigns, workload, seed)
        else:
            result = run_plain(campaigns, seconds)
    result["setup_s"] = setup_s
    result["peak_rss_mb"] = \
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    result["env"] = environment()
    return result


if __name__ == "__main__":
    print(json.dumps(main(sys.argv[1:])))
