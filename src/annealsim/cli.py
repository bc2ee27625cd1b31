"""Command-line front end.

Subcommands: ``single`` (one unitary run), ``ensemble`` (random-instance
sweep with histogram), ``lindblad`` (one dissipative run), ``lz`` and
``lz-sweep`` (two-level benchmark), ``scaling`` (wall-time sweep over N).
Every subcommand takes --segments, --tol and --max-terms, from which
:func:`main` builds the command's one :class:`SegmentSchedule`.

Exit codes: 0 success; 1 invalid flags: every rejected value (the
library's, --points and --qubits-list alike, each size of which is
checked before the first anneal) and an output path that is empty or not a
file in an existing directory (checked before the run) exit through the one
error path of :func:`main`; 2 completed but non-converged, which covers runs
that overflow or blow up (no run failure raises).  This module writes every
output: JSON run records and CSV files.  Outputs are deterministic for
identical flags; wall-clock measurements are isolated in the ``timing``
block of JSON records.  The worker count of an ensemble comes from
--workers alone (default: the CPUs this process may run on, which
``taskset`` limits); n workers are this process plus n - 1 forked ones.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import time
from functools import partial

import numpy as np

from .ensemble import EnsembleConfig, EnsembleResult, run_ensemble, scaling_sweep
from .errors import CapacityError, check_integer
from .lindblad_propagator import propagate_density
from .landau_zener import LZParams, lz_propagate
from .spin_system import random_ising_half
from .taylor_propagator import (
    DEFAULT_MAX_TERMS,
    DEFAULT_TOL,
    AnnealParams,
    SegmentSchedule,
    propagate,
)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_NOT_CONVERGED = 2
SCHEMA_VERSION = 3


class _Parser(argparse.ArgumentParser):
    """argparse variant using exit code 1 for flag errors (2 means
    non-convergence here)."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _json_float(x: float) -> float | None:
    # JSON has no NaN; an overflowed run's NaN fields are written as null
    return None if math.isnan(x) else x


def record(
    kind: str,
    config: dict,
    schedule: SegmentSchedule,
    timing: dict,
    **sections,
) -> dict:
    """JSON-ready run record: ``config`` gains the schedule, resolved at its
    anneal time ``config["time"]``, the ``sections`` become top-level
    entries, and all wall-clock data lives in the separate ``timing`` block."""
    return {
        "schema_version": SCHEMA_VERSION,
        "kind": kind,
        "config": {
            **config,
            "segments": schedule.resolve(config["time"]),
            "tol": schedule.tol,
            "max_terms": schedule.max_terms,
        },
        **sections,
        "timing": timing,
    }


def run_record(config: EnsembleConfig, result: EnsembleResult, wall_seconds: float) -> dict:
    """JSON-ready record of an ensemble run."""
    bins, ps = config.bins, result.probabilities
    return record(
        "ensemble",
        {
            "qubits": config.n_qubits,
            "time": config.t_anneal,
            "runs": config.runs,
            "master_seed": config.master_seed,
            "bins": bins,
            "mode": config.mode,
            "l_scale": config.l_scale,
        },
        config.schedule,
        {"wall_seconds": wall_seconds, "workers": result.workers, "blocks": result.blocks},
        histogram={
            "bin_edges": [i / bins for i in range(bins + 1)],
            "counts": [int(c) for c in result.histogram],
        },
        instances=[
            {"index": r.index, "seed": r.seed, "p": _json_float(r.success_p),
             "terms": r.terms_total, "drift": _json_float(r.norm_drift),
             "converged": r.converged}
            for r in result.records
        ],
        failures=[{"index": r.index, "seed": r.seed} for r in result.failures],
        summary={
            "converged": ps.size,
            "failed": result.failure_count,
            "mean_p": float(ps.mean()) if ps.size else None,
            "mean_p_stderr": float(ps.std(ddof=1) / math.sqrt(ps.size)) if ps.size > 1 else None,
        },
    )


def write_json(path: str, data: dict) -> None:
    with open(path, "w") as fh:
        json.dump(data, fh, indent=2, sort_keys=True)
        fh.write("\n")


def write_csv(path: str, header: list[str], rows) -> None:
    """Comma-separated text with LF line ends; cells of ``rows`` (Python ints
    and floats) are written as their ``repr``."""
    with open(path, "w") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(map(repr, row)) + "\n")


def _add_schedule_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--segments", type=int, default=None,
                   help="segment count (default: ceil(T))")
    p.add_argument("--tol", type=float, default=DEFAULT_TOL,
                   help="per-term stopping tolerance")
    p.add_argument("--max-terms", type=int, default=DEFAULT_MAX_TERMS,
                   help="coefficient budget per segment")


def build_parser() -> _Parser:
    parser = _Parser(prog="annealsim", description=__doc__,
                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("single", help="one unitary annealing run")
    p.set_defaults(run=_cmd_single)
    p.add_argument("--qubits", type=int, required=True)
    p.add_argument("--time", type=float, required=True)
    p.add_argument("--seed", type=int, required=True)
    _add_schedule_flags(p)
    p.add_argument("--out", help="write a JSON run record here")

    p = sub.add_parser("ensemble", help="random-instance ensemble with histogram")
    p.set_defaults(run=_cmd_ensemble)
    p.add_argument("--qubits", type=int, required=True)
    p.add_argument("--time", type=float, required=True)
    p.add_argument("--runs", type=int, required=True)
    p.add_argument("--seed", type=int, required=True, help="master seed")
    p.add_argument("--bins", type=int, default=32)
    p.add_argument("--mode", choices=["unitary", "lindblad"], default="unitary")
    p.add_argument("--lscale", type=float, default=0.0,
                   help="Lindblad strength (lindblad mode)")
    p.add_argument("--workers", type=int, default=None,
                   help="processes that run tasks: this one plus n - 1 forked ones")
    _add_schedule_flags(p)
    p.add_argument("--out", required=True)
    p.add_argument("--format", choices=["json", "csv"], default="json",
                   help="json: full run record; csv: histogram")

    p = sub.add_parser("lindblad", help="one dissipative run")
    p.set_defaults(run=_cmd_lindblad)
    p.add_argument("--qubits", type=int, required=True)
    p.add_argument("--time", type=float, required=True)
    p.add_argument("--lscale", type=float, default=0.1)
    p.add_argument("--seed", type=int, required=True)
    _add_schedule_flags(p)
    p.add_argument("--out", help="write a JSON run record here")
    p.add_argument("--csv", help="write final diagonal populations here")

    p = sub.add_parser("lz", help="two-level avoided-crossing benchmark")
    p.set_defaults(run=_cmd_lz)
    p.add_argument("--delta", type=float, default=1.0)
    p.add_argument("--time", type=float, default=20.0)
    _add_schedule_flags(p)

    p = sub.add_parser("lz-sweep", help="benchmark success probability vs T")
    p.set_defaults(run=_cmd_lz_sweep)
    p.add_argument("--delta", type=float, default=1.0)
    p.add_argument("--tmin", type=float, default=20.0)
    p.add_argument("--tmax", type=float, default=50.0)
    p.add_argument("--points", type=int, default=61)
    _add_schedule_flags(p)
    p.add_argument("--out", required=True, help="CSV output path")

    p = sub.add_parser("scaling", help="wall-time sweep over register sizes")
    p.set_defaults(run=_cmd_scaling)
    p.add_argument("--qubits-list", required=True,
                   help="comma-separated register sizes, e.g. 8,10,12,14")
    p.add_argument("--time", type=float, required=True)
    p.add_argument("--runs", type=int, default=3, help="instances per size")
    _add_schedule_flags(p)
    p.add_argument("--out", help="CSV output path")

    return parser


def _report(res, drift: float) -> int:
    """Print a run's P, drift, terms per segment and verdict; return its exit code."""
    print(f"P = {res.success_p!r}")
    print(f"drift = {drift!r}")
    print(f"terms_per_segment = {res.terms_per_segment}")
    print(f"converged = {res.converged}")
    return EXIT_OK if res.converged else EXIT_NOT_CONVERGED


def _run_one(args, schedule, kind, run, config, drift_field):
    """Anneal the instance named by the flags with ``run(params, inst,
    schedule=schedule)``, report the result and write its JSON record, with
    the result's ``drift_field`` as its drift.  Returns the exit code and the result."""
    inst = random_ising_half(args.qubits, args.seed)
    t0 = time.perf_counter()
    res = run(AnnealParams(args.qubits, args.time), inst, schedule=schedule)
    wall = time.perf_counter() - t0
    drift = getattr(res, drift_field)
    code = _report(res, drift)
    if args.out is not None:
        config = {"qubits": args.qubits, "time": args.time, "seed": args.seed, **config}
        result = {"p": _json_float(res.success_p), "drift": _json_float(drift),
                  "terms_per_segment": res.terms_per_segment, "converged": res.converged}
        write_json(args.out, record(kind, config, schedule, {"wall_seconds": wall}, result=result))
    return code, res


def _cmd_single(args, schedule) -> int:
    return _run_one(args, schedule, "single", propagate, {}, "norm_drift")[0]


def _cmd_ensemble(args, schedule) -> int:
    config = EnsembleConfig(
        n_qubits=args.qubits,
        t_anneal=args.time,
        runs=args.runs,
        master_seed=args.seed,
        schedule=schedule,
        bins=args.bins,
        mode=args.mode,
        l_scale=args.lscale,
    )
    t0 = time.perf_counter()
    result = run_ensemble(config, workers=args.workers)
    wall = time.perf_counter() - t0
    out = run_record(config, result, wall)
    if args.format == "json":
        write_json(args.out, out)
    else:  # the record's histogram: one bin-edge rule for both formats
        edges, counts = out["histogram"]["bin_edges"], out["histogram"]["counts"]
        write_csv(args.out, ["bin_low", "bin_high", "count"], zip(edges, edges[1:], counts))
    print(
        f"ensemble done: {len(result.probabilities)} converged, "
        f"{result.failure_count} failed, wrote {args.out}"
    )
    return EXIT_OK


def _cmd_lindblad(args, schedule) -> int:
    run = partial(propagate_density, l_scale=args.lscale)
    code, res = _run_one(args, schedule, "lindblad", run, {"l_scale": args.lscale}, "trace_drift")
    if args.csv is not None:
        populations = np.diag(res.rho_final).real
        write_csv(args.csv, ["state", "population"],
                  [(i, float(p)) for i, p in enumerate(populations)])
    return code


def _cmd_lz(args, schedule) -> int:
    res = lz_propagate(LZParams(args.delta, args.time), schedule)
    print(f"psi(1) = [{complex(res.psi_final[0])!r}, {complex(res.psi_final[1])!r}]")
    print(f"|psi(1)| = {float(np.linalg.norm(res.psi_final))!r}")
    return _report(res, res.norm_drift)


def _cmd_lz_sweep(args, schedule) -> int:
    t_values = np.linspace(args.tmin, args.tmax, check_integer("points", args.points, 2))
    rows = []
    for t in t_values:
        res = lz_propagate(LZParams(args.delta, float(t)), schedule)
        rows.append((float(t), res.success_p if res.converged else float("nan")))
    write_csv(args.out, ["T", "P"], rows)
    print(f"wrote {args.points} points to {args.out}")
    return EXIT_OK


def _cmd_scaling(args, schedule) -> int:
    try:
        n_list = [int(tok) for tok in args.qubits_list.split(",") if tok.strip()]
    except ValueError:
        raise ValueError(f"cannot parse --qubits-list {args.qubits_list!r}") from None
    if not n_list:
        raise ValueError("--qubits-list needs at least one size")
    result = scaling_sweep(n_list, args.time, args.runs, schedule)
    for n, sec in zip(result.n_values, result.mean_seconds):
        print(f"N={n}: {sec:.6f} s/instance")
    if result.fit_slope is not None:
        print(f"fitted log-time slope over largest three N: {result.fit_slope:.4f}")
    if args.out is not None:
        write_csv(args.out, ["N", "mean_seconds"], zip(result.n_values, result.mean_seconds))
    return EXIT_OK


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    for path in (vars(args).get("out"), vars(args).get("csv")):  # checked before the run
        if path is not None and (not path or os.path.isdir(path)
                                 or not os.path.isdir(os.path.dirname(path) or ".")):
            parser.error(f"cannot write {path!r}: not a file in an existing directory")
    try:
        schedule = SegmentSchedule(segments=args.segments, tol=args.tol, max_terms=args.max_terms)
        return args.run(args, schedule)
    except (ValueError, CapacityError, OSError) as exc:  # rejected input, unwritable output
        parser.error(str(exc))
