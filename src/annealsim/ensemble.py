"""Ensemble harness: many random Ising instances, histograms, T-sweeps.

Instance k of a run with master seed s draws its couplings from the sub-seed
``instance_seed(s, k)``, a pure function of (s, k), so results are bitwise
identical no matter how many workers execute the ensemble or in what order
they finish.  Non-converged instances are excluded from the histogram but
counted and reported with their seeds for replay.

A task takes a contiguous range of instance indices and builds their
instances in one pass (:func:`annealsim.spin_system.random_ising_block`).
With n workers the calling process is worker 0: it runs every n-th task
itself while a pool of n - 1 forked processes runs the rest.  The pool's
modules (``concurrent.futures``, ``multiprocessing`` and what they import)
load with the first pool a process starts, not with this module: a run
without a pool never pays for them.  The pool class is read as the module
attribute ``ProcessPoolExecutor``, which may be replaced.

Unitary instances are annealed in blocks: a task runs its instances as the
columns of one half-space state
(:func:`annealsim.taylor_propagator.propagate_block`).  The block width
depends on the worker count, but no result can: no column's arithmetic
reads another column (the driver product, the diagonal product and the
updates act column by column, and each column has its own stop test, term
count and overflow check), so every record equals that of a one-instance
run, and the records are put back together in index order.

Histogram convention: ``bins`` uniform bins over [0, 1], each bin right-open
except the last, which is closed at 1 (bin index floor(p * bins), p = 1 maps
to the last bin).
"""

from __future__ import annotations

import math
import os
import sys
import time
from contextlib import nullcontext
from dataclasses import dataclass, field
from functools import partial

import numpy as np

from .errors import check_integer
from .lindblad_propagator import check_density_input, propagate_density
from .spin_system import block_columns, check_qubits, random_ising_block, random_ising_half
from .taylor_propagator import AnnealParams, SegmentSchedule, propagate, propagate_block


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
        check_integer("runs", self.runs, 1)
        check_integer("bins", self.bins, 2)
        check_integer("master_seed", self.master_seed, 0)
        if not isinstance(self.schedule, SegmentSchedule):
            raise ValueError(f"schedule must be a SegmentSchedule, got {self.schedule!r}")
        if self.mode not in ("unitary", "lindblad"):
            raise ValueError(f"unknown mode {self.mode!r}")
        check_qubits(self.n_qubits)
        if self.mode == "lindblad":
            check_density_input(self.n_qubits, self.l_scale)
        elif self.l_scale != 0:
            raise ValueError("l_scale applies to lindblad mode only; unitary needs 0")
        AnnealParams(self.n_qubits, self.t_anneal)  # the one check of the anneal time


@dataclass(frozen=True)
class InstanceRecord:
    """One annealed instance.  ``norm_drift`` is the largest drift at a
    segment boundary: of the squared norm in unitary mode, of the trace in
    Lindblad mode."""

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
    workers: int  # processes that ran tasks
    blocks: int  # tasks

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


def __getattr__(name: str):
    """``ProcessPoolExecutor``, imported on first use (see the module docstring)."""
    if name == "ProcessPoolExecutor":
        from concurrent.futures import ProcessPoolExecutor
        return ProcessPoolExecutor
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def instance_seed(master_seed: int, k: int) -> int:
    """Sub-seed for instance k: pure mixing of (master_seed, k), two integers >= 0."""
    master_seed, k = check_integer("master_seed", master_seed, 0), check_integer("k", k, 0)
    seq = np.random.SeedSequence(master_seed, spawn_key=(k,))
    return int(seq.generate_state(1, dtype=np.uint64)[0])


def _run_block(config: EnsembleConfig, first: int, seeds: list[int]) -> list[InstanceRecord]:
    """Anneal instances ``first, first + 1, ...`` with ``seeds``: unitary ones
    as the columns of one block, Lindblad ones one by one.  A failed run gives
    a non-converged record."""
    params = AnnealParams(config.n_qubits, config.t_anneal)
    instances = random_ising_block(config.n_qubits, seeds)
    if config.mode == "unitary":
        results = propagate_block(params, instances, config.schedule)
        drifts = [res.norm_drift for res in results]
    else:
        results = [
            propagate_density(params, inst, config.l_scale, config.schedule) for inst in instances
        ]
        drifts = [res.trace_drift for res in results]
    return [
        InstanceRecord(
            first + j, seed, res.success_p, int(sum(res.terms_per_segment)), drift, res.converged
        )
        for j, (seed, res, drift) in enumerate(zip(seeds, results, drifts))
    ]


def block_width(n_qubits: int, runs: int, workers: int) -> int:
    """Instances per unitary task: the :func:`~annealsim.spin_system.block_columns`
    of a block, but no more than an even share of the runs per worker, so
    that every worker gets a block."""
    return min(block_columns(n_qubits), -(-runs // workers))


def resolve_workers(workers: int | None = None) -> int:
    """``workers``, checked (an integer >= 1), else the number of CPUs this
    process may run on: its affinity mask, or ``os.cpu_count()`` where the
    platform has none."""
    if workers is not None:
        return check_integer("workers", workers, 1)
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def run_ensemble(config: EnsembleConfig, workers: int | None = None) -> EnsembleResult:
    """Propagate all instances and aggregate converged success probabilities.

    A task is a contiguous range of instance indices: a block of
    :func:`block_width` columns in unitary mode, one instance in Lindblad
    mode.  Of n workers, this process is one: it runs every n-th task, from
    the first, while a pool of n - 1 forked processes runs the rest (no pool
    when this process has them all).  The per-instance records come back
    ordered by instance index regardless of scheduling; a single-worker run
    and a pooled run produce identical results.  Individual instance
    failures never abort the ensemble: a run that overflows or blows up is
    recorded as a non-converged instance.
    """
    n_workers = resolve_workers(workers)
    width = block_width(config.n_qubits, config.runs, n_workers) if config.mode == "unitary" else 1
    seeds = [instance_seed(config.master_seed, k) for k in range(config.runs)]
    firsts = range(0, config.runs, width)
    chunks = [seeds[k : k + width] for k in firsts]
    task = partial(_run_block, config)
    own = range(0, len(chunks), n_workers)  # this process runs tasks 0, n, 2n, ...
    pooled = [i for i in range(len(chunks)) if i % n_workers]  # and a pool of n - 1 the rest
    pool = None
    if pooled:  # the class through the module, which imports it on first use
        pool = sys.modules[__name__].ProcessPoolExecutor(min(n_workers - 1, len(pooled)))
    with pool or nullcontext():
        # map submits the pool's share at once, so the pool runs it meanwhile
        results = () if pool is None else pool.map(
            task, [firsts[i] for i in pooled], [chunks[i] for i in pooled])
        blocks = {i: task(firsts[i], chunks[i]) for i in own}
        blocks.update(zip(pooled, results))
    records = [r for i in range(len(chunks)) for r in blocks[i]]
    good = [r for r in records if r.converged]
    failures = [r for r in records if not r.converged]
    probabilities = np.array([r.success_p for r in good], dtype=np.float64)
    counts = histogram(probabilities, config.bins)
    return EnsembleResult(
        probabilities, counts, records, failures, min(n_workers, len(chunks)), len(chunks)
    )


def histogram(ps: np.ndarray, bins: int) -> np.ndarray:
    """Counts over uniform bins on [0, 1]; out-of-range values are an error."""
    ps = np.asarray(ps, dtype=np.float64)
    if ps.size and not (ps.min() >= 0.0 and ps.max() <= 1.0):  # NaN fails too
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
    NaN, never dropped silently.  The times, ``mode`` and ``l_scale`` are
    checked as :class:`EnsembleConfig` checks them, and ``hf_seed`` as a
    seed, before any point runs.
    """
    check_integer("hf_seed", hf_seed, 0)
    t_values = np.asarray(list(t_list), dtype=np.float64)  # t_list may be an iterator
    schedule = schedule or SegmentSchedule()
    configs = [EnsembleConfig(n_qubits, float(t), 1, hf_seed, schedule, mode=mode, l_scale=l_scale)
               for t in t_values]
    ps = []
    for cfg in configs:
        [rec] = _run_block(cfg, 0, [hf_seed])
        ps.append(rec.success_p if rec.converged else math.nan)
    return TCurve(t_values, np.asarray(ps))


def scaling_sweep(
    n_list,
    t_anneal: float,
    runs_per_n: int,
    schedule: SegmentSchedule | None = None,
    master_seed: int = 0,
) -> ScalingResult:
    """Mean wall time per anneal for each register size.

    With three or more sizes, fits log(mean time) against the largest three
    N values; the slope is the exponential growth rate per qubit.  Repeated
    sizes are a ValueError: they would fit a slope over equal N.  Every size
    is checked before the first anneal.
    """
    check_integer("runs_per_n", runs_per_n, 1)
    check_integer("master_seed", master_seed, 0)
    n_values = list(n_list)
    for n in n_values:
        check_qubits(n)
    if len(set(n_values)) < len(n_values):
        raise ValueError(f"register sizes must be distinct, got {n_values}")
    means = []
    for n in n_values:
        params = AnnealParams(n, t_anneal)
        instances = [random_ising_half(n, instance_seed(master_seed, k)) for k in range(runs_per_n)]
        t0 = time.perf_counter()  # the anneals alone: the instances are drawn before
        for hf in instances:
            propagate(params, hf, schedule)
        means.append((time.perf_counter() - t0) / runs_per_n)
    slope = None
    if len(n_values) >= 3:
        order = np.argsort(n_values)[-3:]
        xs = np.asarray(n_values, dtype=np.float64)[order]
        ys = np.log(np.asarray(means)[order])
        slope = float(np.polyfit(xs, ys, 1)[0])
    return ScalingResult(n_values, means, slope)
