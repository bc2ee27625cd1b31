"""Ensemble harness: many random Ising instances, histograms, T-sweeps.

Instance k of a run with master seed s draws its couplings from the sub-seed
``instance_seed(s, k)``, a pure function of (s, k), so results are bitwise
identical no matter how many workers execute the ensemble or in what order
they finish.  Non-converged instances are excluded from the histogram but
counted and reported with their seeds for replay.

Histogram convention: ``bins`` uniform bins over [0, 1], each bin right-open
except the last, which is closed at 1 (bin index floor(p * bins), p = 1 maps
to the last bin).
"""

from __future__ import annotations

import json
import math
import os
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from .lindblad_propagator import propagate_density
from .spin_system import random_ising_half
from .taylor_propagator import AnnealParams, SegmentSchedule, propagate

SCHEMA_VERSION = 1
WORKERS_ENV_VAR = "ANNEALSIM_WORKERS"


@dataclass(frozen=True)
class EnsembleConfig:
    n_qubits: int
    t_anneal: float
    runs: int
    master_seed: int
    schedule: SegmentSchedule = field(default_factory=SegmentSchedule)
    bins: int = 32
    mode: str = "unitary"
    l_scale: float = 0.0

    def __post_init__(self):
        if self.runs < 1:
            raise ValueError("runs must be >= 1")
        if self.bins < 2:
            raise ValueError("bins must be >= 2")
        if self.mode not in ("unitary", "lindblad"):
            raise ValueError(f"unknown mode {self.mode!r}")
        if self.l_scale < 0:
            raise ValueError(f"l_scale must be >= 0, got {self.l_scale}")
        if self.mode == "unitary" and self.l_scale != 0:
            raise ValueError("l_scale applies to lindblad mode only; unitary needs 0")


@dataclass(frozen=True)
class InstanceRecord:
    index: int
    seed: int
    success_p: float
    terms_total: int
    norm_drift: float
    converged: bool


@dataclass
class EnsembleResult:
    probabilities: np.ndarray
    histogram: np.ndarray
    records: list[InstanceRecord]
    failures: list[InstanceRecord]

    @property
    def failure_count(self) -> int:
        return len(self.failures)


@dataclass
class TCurve:
    t_values: np.ndarray
    p_values: np.ndarray


@dataclass
class ScalingResult:
    n_values: list[int]
    mean_seconds: list[float]
    fit_slope: float | None


def instance_seed(master_seed: int, k: int) -> int:
    """Sub-seed for instance k: pure mixing of (master_seed, k)."""
    seq = np.random.SeedSequence(int(master_seed), spawn_key=(int(k),))
    return int(seq.generate_state(1, dtype=np.uint64)[0])


def _run_instance(args: tuple) -> InstanceRecord:
    """Anneal one instance; a failed run gives a non-converged record."""
    n_qubits, t_anneal, mode, l_scale, schedule, index, seed = args
    inst = random_ising_half(n_qubits, seed)
    params = AnnealParams(n_qubits, t_anneal)
    if mode == "unitary":
        res = propagate(params, inst, schedule)
        drift = res.norm_drift
    else:
        res = propagate_density(params, inst, l_scale, schedule)
        drift = res.trace_drift
    return InstanceRecord(
        index, seed, res.success_p, int(sum(res.terms_per_segment)), drift, res.converged
    )


def resolve_workers(workers: int | None = None) -> int:
    if workers is not None:
        return max(1, workers)
    env = os.environ.get(WORKERS_ENV_VAR)
    if env:
        return max(1, int(env))
    return os.cpu_count() or 1


def run_ensemble(config: EnsembleConfig, workers: int | None = None) -> EnsembleResult:
    """Propagate all instances and aggregate converged success probabilities.

    The per-instance records come back ordered by instance index regardless
    of scheduling; a single-worker run and a pooled run produce identical
    results.  Individual instance failures never abort the ensemble: a
    run that overflows or blows up is recorded as a non-converged instance.
    """
    n_workers = resolve_workers(workers)
    shared = (config.n_qubits, config.t_anneal, config.mode, config.l_scale, config.schedule)
    tasks = [(*shared, k, instance_seed(config.master_seed, k)) for k in range(config.runs)]
    if n_workers == 1 or config.runs == 1:
        records = [_run_instance(t) for t in tasks]
    else:
        chunk = max(1, config.runs // (n_workers * 8))
        with ProcessPoolExecutor(max_workers=n_workers) as pool:
            records = list(pool.map(_run_instance, tasks, chunksize=chunk))
    good = [r for r in records if r.converged]
    failures = [r for r in records if not r.converged]
    probabilities = np.array([r.success_p for r in good], dtype=np.float64)
    counts = histogram(probabilities, config.bins)
    return EnsembleResult(probabilities, counts, records, failures)


def histogram(ps: np.ndarray, bins: int) -> np.ndarray:
    """Counts over uniform bins on [0, 1]; out-of-range values are an error."""
    ps = np.asarray(ps, dtype=np.float64)
    if ps.size and (ps.min() < 0.0 or ps.max() > 1.0):
        raise ValueError("probabilities outside [0, 1]; upstream invariant violated")
    idx = np.floor(ps * bins).astype(np.int64)
    idx[idx == bins] = bins - 1
    return np.bincount(idx, minlength=bins)


def sweep_T(
    n_qubits: int,
    hf_seed: int,
    t_list,
    mode: str = "unitary",
    l_scale: float = 0.0,
    schedule: SegmentSchedule | None = None,
) -> TCurve:
    """Success probability of one fixed instance across anneal times.

    Failed points (non-convergence, blow-up or overflow) are recorded as
    NaN, never dropped silently.
    """
    ps = []
    for t in t_list:
        rec = _run_instance((n_qubits, float(t), mode, l_scale, schedule, 0, hf_seed))
        ps.append(rec.success_p if rec.converged else math.nan)
    return TCurve(np.asarray(list(t_list), dtype=np.float64), np.asarray(ps))


def scaling_sweep(
    n_list,
    t_anneal: float,
    runs_per_n: int,
    schedule: SegmentSchedule | None = None,
    master_seed: int = 0,
) -> ScalingResult:
    """Mean wall time per instance for each register size.

    With three or more sizes, fits log(mean time) against the largest three
    N values; the slope is the exponential growth rate per qubit.
    """
    if runs_per_n < 1:
        raise ValueError("runs_per_n must be >= 1")
    n_values = list(n_list)
    means = []
    for n in n_values:
        t0 = time.perf_counter()
        for k in range(runs_per_n):
            seed = instance_seed(master_seed, k)
            _run_instance((n, t_anneal, "unitary", 0.0, schedule, k, seed))
        means.append((time.perf_counter() - t0) / runs_per_n)
    slope = None
    if len(n_values) >= 3:
        order = np.argsort(n_values)[-3:]
        xs = np.asarray(n_values, dtype=np.float64)[order]
        ys = np.log(np.asarray(means)[order])
        slope = float(np.polyfit(xs, ys, 1)[0])
    return ScalingResult(n_values, means, slope)


def _json_float(x: float) -> float | None:
    # JSON has no NaN; an overflowed run's NaN fields are written as null
    return None if math.isnan(x) else x


def record_to_dict(rec: InstanceRecord) -> dict:
    return {
        "index": rec.index,
        "seed": rec.seed,
        "p": _json_float(rec.success_p),
        "terms": rec.terms_total,
        "norm_drift": _json_float(rec.norm_drift),
        "converged": rec.converged,
    }


def record(
    kind: str,
    config: dict,
    schedule: SegmentSchedule,
    t_anneal: float,
    wall_seconds: float,
    **sections,
) -> dict:
    """JSON-ready run record: ``config`` gains the resolved schedule, the
    ``sections`` become top-level entries, and all timing lives in the
    separate block."""
    return {
        "schema_version": SCHEMA_VERSION,
        "kind": kind,
        "config": {
            **config,
            "segments": schedule.resolve(t_anneal),
            "tol": schedule.tol,
            "max_terms": schedule.max_terms,
        },
        **sections,
        "timing": {"wall_seconds": wall_seconds},
    }


def run_record(config: EnsembleConfig, result: EnsembleResult, wall_seconds: float) -> dict:
    """JSON-ready record of an ensemble run."""
    bins = config.bins
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
        config.t_anneal,
        wall_seconds,
        histogram={
            "bin_edges": [i / bins for i in range(bins + 1)],
            "counts": [int(c) for c in result.histogram],
        },
        instances=[record_to_dict(r) for r in result.records],
        failures=[{"index": r.index, "seed": r.seed} for r in result.failures],
        summary={
            "converged": len(result.probabilities),
            "failed": result.failure_count,
            "mean_p": float(result.probabilities.mean()) if result.probabilities.size else None,
        },
    )


def write_json(path: str, record: dict) -> None:
    with open(path, "w") as fh:
        json.dump(record, fh, indent=2, sort_keys=True)
        fh.write("\n")


def write_csv(path: str, header: list[str], rows) -> None:
    """Comma-separated text with LF line ends; cells of ``rows`` (Python ints
    and floats) are written as their ``repr``."""
    with open(path, "w") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(map(repr, row)) + "\n")
