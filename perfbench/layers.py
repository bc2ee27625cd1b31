"""The traced run: spans around the calls into each annealsim module.

Per-layer metrics come from one traced pass per workload:

1. one round with tracing off (its wall time is the base of
   ``trace.overhead_s``);
2. with the wrappers installed, under one root span: the same round again
   when the workload is pooled, then a serial pass that anneals instances one
   by one in this process, so per-instance layer times are seen.

A layer the workload never reaches is measured on a probe: a traced pass of
the workload that does reach it, with the same seed (see README.md).
"""

from __future__ import annotations

import json
import pickle
import statistics
import time
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

import numpy as np

import annealsim.ensemble as ens
import annealsim.lindblad_propagator as lp
import annealsim.spin_system as ss
import annealsim.taylor_propagator as tp

import checks
import workloads as wl
from spans import Tracer

# (module, attribute, span name): every route by which the benchmark or
# annealsim reaches a traced function.
PATCHES = [
    (ens, "run_ensemble", "ensemble.run_ensemble"),
    (ens, "instance_seed", "ensemble.instance_seed"),
    (ens, "random_ising_half", "spin_system.random_ising_half"),
    (ens, "propagate", "taylor_propagator.propagate"),
    (ens, "propagate_density", "lindblad_propagator.propagate_density"),
    (ss, "random_ising_half", "spin_system.random_ising_half"),
    (tp, "propagate", "taylor_propagator.propagate"),
    (tp, "transverse_field_half", "spin_system.transverse_field_half"),
    (tp, "apply_initial", "spin_system.apply_initial"),
    (tp, "ground_space", "spin_system.ground_space"),
    (tp, "uniform_initial_state", "spin_system.uniform_initial_state"),
    (lp, "propagate_density", "lindblad_propagator.propagate_density"),
    (lp, "full_flip_matrix", "spin_system.full_flip_matrix"),
    (lp, "build_energy_lowering_op", "lindblad_propagator.build_energy_lowering_op"),
    (lp, "lift_to_full", "spin_system.lift_to_full"),
    (lp, "uniform_initial_state", "spin_system.uniform_initial_state"),
]

# Span counts and totals of each traced run are written here.
OUT_DIR = Path(__file__).with_name("out")


def _pool_recording_task_sizes(sizes: list[int]):
    class Pool(ProcessPoolExecutor):
        def map(self, fn, *iterables, **kwargs):
            iterables = [list(it) for it in iterables]
            sizes.extend(len(pickle.dumps(args)) for args in zip(*iterables))
            return super().map(fn, *iterables, **kwargs)

    return Pool


class TracedPass:
    """Runs the traced procedure for one workload and holds what it saw."""

    def __init__(self, w: wl.Workload, inputs: wl.Inputs, serial_count: int,
                 checker: checks.Checker | None, untraced_round: bool):
        self.w = w
        self.tracer = Tracer()
        self.task_sizes: list[int] = []
        self.untraced_s = None
        if untraced_round:
            t0 = time.perf_counter()
            outcomes = wl.run_round(w, inputs)
            self.untraced_s = time.perf_counter() - t0
            if checker is not None:
                checker.add_round(outcomes, {})
        tracer = self.tracer
        for module, attr, name in PATCHES:
            tracer.patch(module, attr, name)
        tracer.replace(ens, "ProcessPoolExecutor", _pool_recording_task_sizes(self.task_sizes))
        rounds, anneals = [], []
        t0 = time.perf_counter()
        try:
            with tracer.span("bench.traced"):
                if w.pooled and untraced_round:
                    rounds.append(wl.run_round(w, inputs))
                for seed in inputs.seeds[:serial_count]:
                    with tracer.span("bench.instance"):
                        inst = ss.random_ising_half(w.n_qubits, seed)
                        anneals.append(wl.anneal_or_none(w, inst))
        finally:
            tracer.restore()
        self.wall_s = time.perf_counter() - t0
        self.outcomes = [o for o, _ in anneals if o is not None]
        if checker is not None:
            for outcomes in rounds:
                checker.add_round(outcomes, {})
            for k, (outcome, rho) in enumerate(anneals):
                checker.add_anneal(k, outcome, rho)

    def overhead_s(self) -> float:
        name = "ensemble.run_ensemble" if self.w.pooled else _propagate_span(self.w)
        return self.tracer.durations(name)[0] - self.untraced_s

    def self_seconds(self) -> dict[str, float]:
        return self.tracer.layer_self_seconds(self.tracer.names.index("bench.traced"))


def _propagate_span(w: wl.Workload) -> str:
    if w.mode == "unitary":
        return "taylor_propagator.propagate"
    return "lindblad_propagator.propagate_density"


def _tail(samples: list[float]) -> float:
    """The highest percentile with ten samples above it; the median below 40 samples."""
    if len(samples) < 40:
        return statistics.median(samples)
    return float(np.quantile(samples, 1.0 - 10.0 / len(samples)))


def _csr_bytes(m) -> int:
    return int(m.data.nbytes + m.indices.nbytes + m.indptr.nbytes)


def spin_system_metrics(tp_pass: TracedPass, own: TracedPass) -> dict:
    """Driver-product figures from ``tp_pass`` (a unitary pass), the rest from ``own``."""
    t = tp_pass.tracer
    if own.w.mode == "unitary":
        driver = ss.transverse_field_half(own.w.n_qubits).couplings
    else:
        driver = ss.full_flip_matrix(own.w.n_qubits)
    return {
        "spin_system.random_ising_half_ms": (own.tracer.median("spin_system.random_ising_half") * 1e3, "ms"),
        "spin_system.transverse_field_half_ms": (t.median("spin_system.transverse_field_half") * 1e3, "ms"),
        "spin_system.apply_initial_us": (t.median("spin_system.apply_initial") * 1e6, "us"),
        "spin_system.driver_bytes": (_csr_bytes(driver), "bytes"),
        "spin_system.self_s": (own.self_seconds().get("spin_system", 0.0), "s"),
    }


def taylor_metrics(p: TracedPass) -> dict:
    times = p.tracer.durations("taylor_propagator.propagate")
    terms = sum(o.terms for o in p.outcomes)
    term_us = sum(times) / terms * 1e6
    apply_us = p.tracer.median("spin_system.apply_initial") * 1e6
    dim = 1 << (p.w.n_qubits - 1)
    # Least traffic of one term as the recurrence is written: the driver CSR
    # and the diagonal read once, and eight complex vectors of the half space
    # (the previous term, the two cached (n-2) products, the accumulator read;
    # the two new products, the new term, the accumulator written).
    term_bytes = _csr_bytes(ss.transverse_field_half(p.w.n_qubits).couplings) + 8 * dim + 8 * 16 * dim
    return {
        "taylor_propagator.propagate_s": (statistics.median(times), "s"),
        "taylor_propagator.propagate_s_tail": (_tail(times), "s"),
        "taylor_propagator.terms": (terms, "count"),
        "taylor_propagator.term_us": (term_us, "us"),
        "taylor_propagator.non_driver_term_us": (term_us - apply_us, "us"),
        "taylor_propagator.term_bytes_computed": (term_bytes, "bytes"),
        "taylor_propagator.term_gbps_computed": (term_bytes / term_us * 1e-3, "GB/s"),
        "taylor_propagator.self_s": (p.self_seconds().get("taylor_propagator", 0.0), "s"),
    }


def lindblad_metrics(p: TracedPass) -> dict:
    times = p.tracer.durations("lindblad_propagator.propagate_density")
    terms = sum(o.terms for o in p.outcomes)
    return {
        "lindblad_propagator.propagate_density_s": (statistics.median(times), "s"),
        "lindblad_propagator.terms": (terms, "count"),
        "lindblad_propagator.term_ms": (sum(times) / terms * 1e3, "ms"),
        "lindblad_propagator.build_energy_lowering_op_ms": (
            p.tracer.median("lindblad_propagator.build_energy_lowering_op") * 1e3, "ms"),
        "lindblad_propagator.self_s": (p.self_seconds().get("lindblad_propagator", 0.0), "s"),
    }


def ensemble_metrics(p: TracedPass) -> dict:
    run_s = p.tracer.durations("ensemble.run_ensemble")[0]
    serial_s = sum(p.tracer.durations("bench.instance"))
    return {
        "ensemble.run_ensemble_s": (run_s, "s"),
        "ensemble.serial_instance_s": (serial_s, "s"),
        "ensemble.parallel_efficiency": (serial_s / (wl.WORKERS * run_s), "ratio"),
        "ensemble.pool_overhead_s": (run_s - serial_s / wl.WORKERS, "s"),
        "ensemble.instance_seed_us": (p.tracer.median("ensemble.instance_seed") * 1e6, "us"),
        "ensemble.task_pickle_bytes": (statistics.median(p.task_sizes), "bytes"),
        "ensemble.self_s": (p.self_seconds().get("ensemble", 0.0), "s"),
    }


def traced_run(w: wl.Workload, seed: int) -> tuple[dict, checks.Checker, list[str]]:
    """Per-layer metrics of workload ``w``, the checker of its own operations
    (probes are not counted) and the harness problems seen."""
    inputs = wl.setup(w, seed)
    checker = checks.Checker(w, inputs)
    own = TracedPass(w, inputs, serial_count=w.runs, checker=checker, untraced_round=True)

    def probe(name: str, serial_count: int, untraced_round: bool = False) -> TracedPass:
        donor = wl.WORKLOADS[name]
        return TracedPass(donor, wl.setup(donor, seed), serial_count, None, untraced_round)

    unitary = own if w.mode == "unitary" else probe("ensemble-n8-t10", 8)
    density = own if w.mode == "lindblad" else probe("lindblad-n8-t4", 1)
    pooled = own if w.pooled else probe("ensemble-n8-t10", 100, untraced_round=True)

    selfs = own.self_seconds()
    coverage = sum(selfs.values()) / own.wall_s
    metrics = {}
    metrics.update(spin_system_metrics(unitary, own))
    metrics.update(taylor_metrics(unitary))
    metrics.update(lindblad_metrics(density))
    metrics.update(ensemble_metrics(pooled))
    metrics["trace.overhead_s"] = (own.overhead_s(), "s")
    metrics["trace.self_time_coverage"] = (coverage, "ratio")
    OUT_DIR.mkdir(exist_ok=True)
    (OUT_DIR / f"trace-{w.name}-seed{seed}.json").write_text(json.dumps({
        "spans": own.tracer.summary(), "layer_self_s": selfs, "traced_wall_s": own.wall_s,
        "probes": {p.w.name: p.tracer.summary() for p in {unitary, density, pooled} - {own}},
    }, indent=1, sort_keys=True) + "\n")
    problems = []
    if abs(coverage - 1.0) > 0.1:
        problems.append(f"layer self times cover {coverage:.3f} of the traced wall time")
    return metrics, checker, problems
