"""qedge benchmark: run one workload for a fixed time and print its metrics.

Usage, from the root of a qedge checkout:

    python3 perfbench/run.py --workload srm_fig1 --seed 1 --seconds 15 --trace 0

The workload repeats whole rounds until the next round would overrun
``--seconds`` (at least one round); then every round is checked against the
reference in ``reference.py``, outside the timed region.  The last line of
standard output is one JSON object with ``correct``, ``attempted``, ``failed``
and ``metrics``: the end-to-end metrics with ``--trace 0``, the per-layer
metrics of a traced run with ``--trace 1``.  The line before it records the
run's rounds and their times, and its numpy, scipy and OpenBLAS versions,
thread settings and hash seed.
"""

import argparse
import json
import os
import random
import resource
import statistics
import subprocess
import sys
import time

SETUP_SAMPLES = 5
SETUP_CODE = "import sys; sys.path.insert(0, 'src'); import qedge"
WORKLOAD_NAMES = ("srm_fig1", "sdp_grid", "srm_large", "asymptote")


def measure_setup() -> float:
    """Median time from interpreter start to qedge imported, over fresh processes."""
    times = []
    for _ in range(SETUP_SAMPLES):
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", SETUP_CODE], check=True)
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def run_environment(seed: int) -> dict[str, str]:
    """BLAS and OpenMP on one thread.  The hash seed follows the run's seed, so
    that a run repeats with its seed: the heap layout, and with it the peak
    memory of srm_large, changes with the hash seed."""
    return {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
            "PYTHONHASHSEED": str(seed % 2**32)}


def environment() -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        **{k: os.environ.get(k) for k in run_environment(0)},
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    pinned = run_environment(args.seed)
    if any(os.environ.get(k) != v for k, v in pinned.items()):
        # start again with the settings in the environment, before numpy loads
        os.execve(sys.executable, [sys.executable, *sys.argv], {**os.environ, **pinned})
    if not os.path.isfile(os.path.join("src", "qedge", "__init__.py")):
        print("perfbench: src/qedge not found; run from the root of a qedge checkout",
              file=sys.stderr)
        return 2

    setup_s = None if args.trace else measure_setup()
    sys.path.insert(0, os.path.abspath("src"))
    import tracing
    import workloads

    workload = workloads.WORKLOADS[args.workload]
    rng = random.Random(args.seed)
    tracer = tracing.Tracer() if args.trace else None
    if tracer:
        tracer.install()

    def one_round():
        if tracer:
            tracer.begin_round()
        result = workload.run()
        if tracer:
            tracer.end_round()
        return result

    walls, results, peak_rss_mb = [], [], None
    while not walls or sum(walls) + statistics.median(walls) <= args.seconds:
        start = time.perf_counter()
        results.append(one_round())
        walls.append(time.perf_counter() - start)
        if peak_rss_mb is None:  # before any check allocates
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    outcomes = [workload.check(result, rng) for result in results]
    if tracer:
        os.makedirs(os.path.join("perfbench", "out"), exist_ok=True)
        tracer.write(os.path.join("perfbench", "out", f"{args.workload}-seed{args.seed}.spans.jsonl"))

    problems = [p for o in outcomes for p in o.problems]
    for p in problems:
        print(f"perfbench: check failed: {p}", file=sys.stderr)
    if tracer:
        units = dict(tracing.PER_LAYER)
        metrics = {k: {"value": v, "unit": units[k]} for k, v in tracer.metrics().items()}
    else:
        metrics = {
            "setup_s": {"value": setup_s, "unit": "s"},
            "wall_s": {"value": statistics.median(walls), "unit": "s"},
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
        }
    print(json.dumps({"workload": args.workload, "seed": args.seed, "rounds": len(walls),
                      "round_wall_s": walls, "problems": len(problems), "env": environment()}))
    print(json.dumps({
        "correct": not problems,
        "attempted": sum(len(o.ops) for o in outcomes),
        "failed": sum(o.failed for o in outcomes),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
