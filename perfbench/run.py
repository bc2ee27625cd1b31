"""Benchmark of annealsim: one workload per call, result as the last line.

    python3 perfbench/run.py --workload ensemble-n8-t10 --seed 1 --seconds 10 --trace 0

With ``--trace 0`` it repeats rounds of the workload for ``--seconds`` and
prints the end-to-end metrics; with ``--trace 1`` it makes one traced pass
and prints the per-layer metrics.  The last line of standard output is one
JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``.  annealsim is imported from ``src/`` of the checkout that holds
this file; the run fails without a result when it is not there.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SETUP_REPEATS = 5
THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
                    "ANNEALSIM_WORKERS")


def import_program() -> None:
    """Put the checkout's ``src`` first on the path and import annealsim from it."""
    if not (SRC / "annealsim" / "__init__.py").is_file():
        sys.exit(f"annealsim sources not found under {SRC}")
    sys.path.insert(0, str(SRC))
    import annealsim

    if Path(annealsim.__file__).resolve().parent != SRC / "annealsim":
        sys.exit(f"imported annealsim from {annealsim.__file__}, not from {SRC}")


def cpu_seconds() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def setup_seconds(workload: str, seed: int) -> float:
    """Median wall time of fresh interpreters that import annealsim and build the inputs."""
    samples = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, __file__, "--workload", workload, "--seed", str(seed),
                        "--setup-only"], check=True, stdout=subprocess.DEVNULL)
        samples.append(time.perf_counter() - t0)
    return statistics.median(samples)


def timed_run(w, seed: int, seconds: float):
    """Rounds of the workload for ``seconds``; returns metrics and the checker."""
    import checks
    import workloads as wl

    inputs = wl.setup(w, seed)
    rounds, walls, cpu = [], [], 0.0
    direct, direct_walls = {}, []  # pooled workloads: direct anneals between rounds
    start = time.perf_counter()
    while not walls or time.perf_counter() - start < seconds:
        cpu0, t0 = cpu_seconds(), time.perf_counter()
        rounds.append(wl.run_round(w, inputs))
        walls.append(time.perf_counter() - t0)
        cpu += cpu_seconds() - cpu0
        if w.direct:
            k = len(direct_walls) % w.direct
            t0 = time.perf_counter()
            direct.setdefault(k, wl.anneal_or_none(w, inputs.instances[k]))
            direct_walls.append(time.perf_counter() - t0)
    # ru_maxrss is in KiB.  Pool workers are reaped at the end of each round,
    # so the children's figure is the largest worker peak.
    own_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    worker_kib = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss if w.pooled else 0

    for k in range(w.direct):  # every run checks the same direct anneals
        if k not in direct:
            direct[k] = wl.anneal_or_none(w, inputs.instances[k])
    checker = checks.Checker(w, inputs)
    extra = checks.direct_problems(w, inputs, rounds, direct)
    for outcomes in rounds:
        checker.add_round(outcomes, extra)
    instances = w.runs * len(rounds)
    metrics = {
        "setup_s": (setup_seconds(w.name, seed), "s"),
        "instances_per_s": (statistics.median(w.runs / t for t in walls), "instances/s"),
        "anneal_s": (statistics.median(direct_walls if w.pooled else walls), "s"),
        "cpu_s_per_instance": (cpu / instances, "s"),
        "peak_rss_mb": ((own_kib + w.workers * worker_kib) / 1024, "MB"),
    }
    return metrics, checker


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="only import annealsim and build the inputs (times setup_s)")
    args = parser.parse_args(argv)

    import_program()
    import workloads as wl

    if args.workload not in wl.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(wl.WORKLOADS)}")
    w = wl.WORKLOADS[args.workload]
    if args.setup_only:
        wl.setup(w, args.seed)
        return 0

    found = {v: os.environ.get(v, "unset") for v in THREAD_VARIABLES}
    print("environment: cpus=%d workers=%d %s" % (
        len(os.sched_getaffinity(0)), w.workers, " ".join(f"{k}={v}" for k, v in found.items())))
    import checks

    harness = []
    try:
        if args.trace:
            import layers

            metrics, checker, harness = layers.traced_run(w, args.seed)
        else:
            metrics, checker = timed_run(w, args.seed, args.seconds)
    except checks.HarnessError as exc:
        sys.exit(f"harness error: {exc}")
    for problem in (checker.problems + harness)[:20]:
        print(problem, file=sys.stderr)
    result = {
        "correct": not harness,
        "attempted": checker.attempted,
        "failed": checker.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
