"""The three workloads: inputs made from the seed and one round of work.

annealsim is driven only through its public functions.  A round is the unit
the benchmark repeats; every round of a run does the same operations (one
anneal per instance) on the same inputs, so the share of failed operations
does not depend on how many rounds fit into a run.
"""

from __future__ import annotations

import os
import sys
import traceback
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

import annealsim.ensemble as ens
import annealsim.lindblad_propagator as lp
import annealsim.spin_system as ss
import annealsim.taylor_propagator as tp

# The load comes from one process with at most two pool workers.
WORKERS = min(2, len(os.sched_getaffinity(0)))


@dataclass(frozen=True)
class Workload:
    name: str
    n_qubits: int
    t_anneal: float
    runs: int  # instances per round; more than one goes through run_ensemble
    mode: str = "unitary"
    l_scale: float = 0.0
    segments: int | None = None
    # None: the master seed is the benchmark seed.  Otherwise the seed picks
    # one of this many master seeds 1, 2, ..., whose references are on file.
    input_sets: int | None = None
    # Instances a pooled workload also anneals directly, between its rounds.
    direct: int = 0

    @property
    def pooled(self) -> bool:
        return self.runs > 1

    @property
    def workers(self) -> int:
        return WORKERS if self.pooled else 1

    def master_seed(self, seed: int) -> int:
        return seed if self.input_sets is None else 1 + seed % self.input_sets

    def schedule(self) -> tp.SegmentSchedule:
        return tp.SegmentSchedule(segments=self.segments)


# lindblad-n8-t4 is not in BENCHMARK.json: its figures spread too much from
# run to run (see README.md).  It stays runnable by hand, and the traced runs
# take their Lindblad-layer probe from it.
WORKLOADS = {
    w.name: w
    for w in (
        Workload("ensemble-n8-t10", 8, 10.0, runs=100, direct=20),
        Workload("single-n18-t10", 18, 10.0, runs=1, segments=40, input_sets=1),
        Workload("lindblad-n8-t4", 8, 4.0, runs=2, mode="lindblad", l_scale=0.1,
                 input_sets=4, direct=2),
    )
}


class Outcome(NamedTuple):
    p: float
    drift: float  # norm drift (unitary) or trace drift (Lindblad)
    converged: bool
    terms: int


@dataclass
class Inputs:
    master: int
    seeds: list[int]
    instances: list[ss.IsingDiagonal]


def setup(w: Workload, seed: int) -> Inputs:
    """Build the workload's Ising instances: what setup_s times."""
    master = w.master_seed(seed)
    seeds = [ens.instance_seed(master, k) for k in range(w.runs)]
    return Inputs(master, seeds, [ss.random_ising_half(w.n_qubits, s) for s in seeds])


def anneal(w: Workload, inst: ss.IsingDiagonal) -> tuple[Outcome, np.ndarray | None]:
    """One instance through its propagator; returns rho for Lindblad runs."""
    params = tp.AnnealParams(w.n_qubits, w.t_anneal)
    if w.mode == "unitary":
        r = tp.propagate(params, inst, w.schedule())
        return Outcome(r.success_p, r.norm_drift, r.converged, sum(r.terms_per_segment)), None
    r = lp.propagate_density(params, inst, w.l_scale, w.schedule())
    outcome = Outcome(r.success_p, r.trace_drift, r.converged, sum(r.terms_per_segment))
    return outcome, r.rho_final


def anneal_or_none(w: Workload, inst: ss.IsingDiagonal) -> tuple[Outcome | None, np.ndarray | None]:
    """:func:`anneal`, with (None, None) when it raised: a failed operation."""
    try:
        return anneal(w, inst)
    except Exception:  # counted as a failure, not the end of the run
        traceback.print_exc(file=sys.stderr)
        return None, None


def run_round(w: Workload, inputs: Inputs) -> list[Outcome] | None:
    """One round; None when the call raised, which fails all its instances."""
    try:
        if not w.pooled:
            return [anneal(w, inputs.instances[0])[0]]
        config = ens.EnsembleConfig(w.n_qubits, w.t_anneal, w.runs, inputs.master,
                                    w.schedule(), mode=w.mode, l_scale=w.l_scale)
        records = ens.run_ensemble(config, workers=WORKERS).records
        return [Outcome(r.success_p, r.norm_drift, r.converged, r.terms_total)
                for r in records]
    except Exception:  # a raising round is a counted failure, not the end of the run
        traceback.print_exc(file=sys.stderr)
        return None
