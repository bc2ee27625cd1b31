"""Command-line front end.

Subcommands: ``single`` (one unitary run), ``ensemble`` (random-instance
sweep with histogram), ``lindblad`` (one dissipative run), ``lz`` and
``lz-sweep`` (two-level benchmark), ``scaling`` (wall-time sweep over N).

Exit codes: 0 success; 1 invalid flags, including every value or size the
library rejects; 2 completed but non-converged, which covers runs that
overflow or blow up (no run failure raises).  Outputs are deterministic for
identical flags; wall-clock measurements are isolated in the ``timing``
block of JSON records.  Worker count for ensembles comes from --workers or
the ANNEALSIM_WORKERS environment variable (default: the CPUs this process
may run on); n workers are this process plus n - 1 forked ones.
"""

from __future__ import annotations

import argparse
import sys
import time
from functools import partial

import numpy as np

from .ensemble import (
    EnsembleConfig,
    _json_float,
    record,
    run_ensemble,
    run_record,
    scaling_sweep,
    write_csv,
    write_json,
)
from .errors import CapacityError
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


class _Parser(argparse.ArgumentParser):
    """argparse variant using exit code 1 for flag errors (2 means
    non-convergence here)."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _schedule_from(args) -> SegmentSchedule:
    return SegmentSchedule(
        segments=args.segments, tol=args.tol, max_terms=args.max_terms
    )


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
    p.add_argument("--qubits", type=int, required=True)
    p.add_argument("--time", type=float, required=True)
    p.add_argument("--seed", type=int, required=True)
    _add_schedule_flags(p)
    p.add_argument("--out", help="write a JSON run record here")

    p = sub.add_parser("ensemble", help="random-instance ensemble with histogram")
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
    p.add_argument("--qubits", type=int, required=True)
    p.add_argument("--time", type=float, required=True)
    p.add_argument("--lscale", type=float, default=0.1)
    p.add_argument("--seed", type=int, required=True)
    _add_schedule_flags(p)
    p.add_argument("--out", help="write a JSON run record here")
    p.add_argument("--csv", help="write final diagonal populations here")

    p = sub.add_parser("lz", help="two-level avoided-crossing benchmark")
    p.add_argument("--delta", type=float, default=1.0)
    p.add_argument("--time", type=float, default=20.0)
    _add_schedule_flags(p)
    p.add_argument("--pathology", action="store_true",
                   help="demonstrate the single-segment blow-up (1 segment, 100 terms)")

    p = sub.add_parser("lz-sweep", help="benchmark success probability vs T")
    p.add_argument("--delta", type=float, default=1.0)
    p.add_argument("--tmin", type=float, default=20.0)
    p.add_argument("--tmax", type=float, default=50.0)
    p.add_argument("--points", type=int, default=61)
    _add_schedule_flags(p)
    p.add_argument("--out", required=True, help="CSV output path")

    p = sub.add_parser("scaling", help="wall-time sweep over register sizes")
    p.add_argument("--qubits-list", required=True,
                   help="comma-separated register sizes, e.g. 8,10,12,14")
    p.add_argument("--time", type=float, required=True)
    p.add_argument("--runs", type=int, default=3, help="instances per size")
    _add_schedule_flags(p)
    p.add_argument("--out", help="CSV output path")

    return parser


def _run_one(args, kind, run, config, drift):
    """Anneal the instance named by the flags with ``run(params, inst,
    schedule=...)``, print the result and write its JSON record.

    ``drift`` names the result's drift field, printed and recorded.  Returns
    the exit code and the result.
    """
    schedule = _schedule_from(args)
    inst = random_ising_half(args.qubits, args.seed)
    t0 = time.perf_counter()
    res = run(AnnealParams(args.qubits, args.time), inst, schedule=schedule)
    wall = time.perf_counter() - t0
    print(f"P = {res.success_p!r}")
    print(f"{drift} = {getattr(res, drift)!r}")
    print(f"terms_per_segment = {res.terms_per_segment}")
    print(f"converged = {res.converged}")
    if args.out:
        config = {"qubits": args.qubits, "time": args.time, "seed": args.seed, **config}
        result = {"p": _json_float(res.success_p), drift: _json_float(getattr(res, drift)),
                  "terms_per_segment": res.terms_per_segment, "converged": res.converged}
        write_json(args.out, record(kind, config, schedule, args.time, wall, result=result))
    return (EXIT_OK if res.converged else EXIT_NOT_CONVERGED), res


def _cmd_single(parser, args) -> int:
    return _run_one(args, "single", propagate, {}, "norm_drift")[0]


def _cmd_ensemble(parser, args) -> int:
    if not args.out:
        parser.error("--out must not be empty")
    schedule = _schedule_from(args)
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
    if args.format == "json":
        write_json(args.out, run_record(config, result, wall))
    else:
        bins = config.bins
        write_csv(args.out, ["bin_low", "bin_high", "count"],
                  [(i / bins, (i + 1) / bins, int(c)) for i, c in enumerate(result.histogram)])
    print(
        f"ensemble done: {len(result.probabilities)} converged, "
        f"{result.failure_count} failed, wrote {args.out}"
    )
    return EXIT_OK


def _cmd_lindblad(parser, args) -> int:
    run = partial(propagate_density, l_scale=args.lscale)
    code, res = _run_one(args, "lindblad", run, {"lscale": args.lscale}, "trace_drift")
    if args.csv:
        populations = np.diag(res.rho_final).real
        write_csv(args.csv, ["state", "population"],
                  [(i, float(p)) for i, p in enumerate(populations)])
    return code


def _cmd_lz(parser, args) -> int:
    if args.pathology:
        schedule = SegmentSchedule(segments=1, tol=args.tol, max_terms=min(args.max_terms, 100))
    else:
        schedule = _schedule_from(args)
    res = lz_propagate(LZParams(args.delta, args.time), schedule)
    print(f"psi(1) = [{complex(res.psi_final[0])!r}, {complex(res.psi_final[1])!r}]")
    print(f"|psi(1)| = {float(np.linalg.norm(res.psi_final))!r}")
    print(f"P = {res.success_p!r}")
    print(f"terms_per_segment = {res.terms_per_segment}")
    print(f"converged = {res.converged}")
    return EXIT_OK if res.converged else EXIT_NOT_CONVERGED


def _cmd_lz_sweep(parser, args) -> int:
    if args.points < 2:
        parser.error("--points must be >= 2")
    if not args.out:
        parser.error("--out must not be empty")
    t_values = np.linspace(args.tmin, args.tmax, args.points)
    schedule = _schedule_from(args)
    rows = []
    for t in t_values:
        res = lz_propagate(LZParams(args.delta, float(t)), schedule)
        rows.append((float(t), res.success_p if res.converged else float("nan")))
    write_csv(args.out, ["T", "P"], rows)
    print(f"wrote {args.points} points to {args.out}")
    return EXIT_OK


def _cmd_scaling(parser, args) -> int:
    try:
        n_list = [int(tok) for tok in args.qubits_list.split(",") if tok.strip()]
    except ValueError:
        parser.error(f"cannot parse --qubits-list {args.qubits_list!r}")
    if not n_list:
        parser.error("--qubits-list needs at least one size")
    schedule = _schedule_from(args)
    result = scaling_sweep(n_list, args.time, args.runs, schedule)
    for n, sec in zip(result.n_values, result.mean_seconds):
        print(f"N={n}: {sec:.6f} s/instance")
    if result.fit_slope is not None:
        print(f"fitted log-time slope over largest three N: {result.fit_slope:.4f}")
    if args.out:
        write_csv(args.out, ["N", "mean_seconds"], zip(result.n_values, result.mean_seconds))
    return EXIT_OK


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    handlers = {
        "single": _cmd_single,
        "ensemble": _cmd_ensemble,
        "lindblad": _cmd_lindblad,
        "lz": _cmd_lz,
        "lz-sweep": _cmd_lz_sweep,
        "scaling": _cmd_scaling,
    }
    try:
        return handlers[args.command](parser, args)
    except (ValueError, CapacityError) as exc:  # input the library rejects is a flag error
        parser.error(str(exc))


if __name__ == "__main__":
    sys.exit(main())
