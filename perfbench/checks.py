"""Output checks and the count of failed operations.

Each ``*_problems`` function returns the problems it found; empty means sound.

A state whose norm or trace has drifted by more than the P tolerance cannot
carry P to that tolerance, so the drift bound equals it.  Sound runs stay
far inside the bounds: norm drift at most 2.1e-8 over 2000 instances at N=8,
T=10 (median 4e-12), 4e-11 at N=18 with 40 segments; trace drift about 2e-14,
Hermiticity error about 1e-12 and smallest eigenvalue of rho about +3e-6 at
N=8, T=4, l_scale=0.1.  A broken segment schedule drifts by 1e-3 and more.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np

import reference
from workloads import Inputs, Outcome, Workload

P_TOL = 1e-6  # reference agreement, as in the oracle-equivalence acceptance test
DRIFT_BOUND = P_TOL  # unitary norm drift and Lindblad trace drift
HERMITICITY_BOUND = 1e-10  # Frobenius norm of rho - rho^+
PSD_BOUND = 1e-10  # smallest eigenvalue of rho may not lie below -PSD_BOUND
REFERENCE_FILE = Path(__file__).with_name("reference.json")
# Instances of the unitary ensemble whose P is checked against a reference
# integrated while the run checks its outputs (about 0.7 s each at N=8).
RUNTIME_SAMPLE = (0, 1, 2)


def probability_problems(p: float) -> list[str]:
    if not (math.isfinite(p) and 0.0 <= p <= 1.0):
        return [f"P={p!r} outside [0, 1]"]
    return []


def instance_problems(p: float, drift: float, converged: bool) -> list[str]:
    """Properties every instance must have: converged, P in [0, 1], drift bounded."""
    problems = [] if converged else ["not converged"]
    problems += probability_problems(p)
    if not drift <= DRIFT_BOUND:
        problems.append(f"drift {drift:.3g} above {DRIFT_BOUND:g}")
    return problems


def reference_problems(p: float, reference_p: float, tol: float = P_TOL) -> list[str]:
    if not abs(p - reference_p) <= tol:
        return [f"P={p!r} differs from reference {reference_p!r} by more than {tol:g}"]
    return []


def density_problems(rho: np.ndarray, ground_indices) -> list[str]:
    """Trace, Hermiticity and positivity of rho, and P read from its diagonal."""
    problems = []
    trace_err = abs(complex(np.trace(rho)) - 1.0)
    if not trace_err <= DRIFT_BOUND:
        problems.append(f"trace error {trace_err:.3g} above {DRIFT_BOUND:g}")
    herm_err = float(np.linalg.norm(rho - rho.conj().T))
    if not herm_err <= HERMITICITY_BOUND:
        problems.append(f"Hermiticity error {herm_err:.3g} above {HERMITICITY_BOUND:g}")
    lowest = float(np.linalg.eigvalsh(0.5 * (rho + rho.conj().T))[0])
    if not lowest >= -PSD_BOUND:
        problems.append(f"eigenvalue {lowest:.3g} below -{PSD_BOUND:g}: rho is not PSD")
    problems += probability_problems(float(np.sum(np.diag(rho).real[ground_indices])))
    return problems


class HarnessError(RuntimeError):
    """The benchmark itself cannot vouch for a result (inputs or reference wrong)."""


def reference_points(w: Workload, inputs: Inputs) -> dict[int, float]:
    """Reference P by instance index, each with an error estimate below the check tolerance.

    The inputs are first redrawn by the reference's own generator, so a
    change to annealsim's instance generator shows up as a harness error.
    """
    couplings = []
    for k, (seed, inst) in enumerate(zip(inputs.seeds, inputs.instances)):
        j = reference.instance_couplings(w.n_qubits, seed)
        if reference.instance_seed(inputs.master, k) != seed or not np.array_equal(
                np.triu(inst.couplings, 1), j):
            raise HarnessError(f"{w.name}: instance {k} differs from the reference generator")
        couplings.append(j)
    points = {}
    if w.input_sets is None:
        for k in RUNTIME_SAMPLE:
            std = reference.schrodinger_p(couplings[k], w.t_anneal, reference.STANDARD)
            tight = reference.schrodinger_p(couplings[k], w.t_anneal, reference.TIGHT)
            points[k] = (tight, abs(std - tight))
    else:
        entries = json.loads(REFERENCE_FILE.read_text())[w.name]
        for e in entries:
            if e["master_seed"] != inputs.master:
                continue
            if e["couplings"] != reference.couplings_text(couplings[e["k"]]):
                raise HarnessError(f"{w.name}: reference file holds other couplings")
            points[e["k"]] = (e["p"], e["error_estimate"])
        if not points:
            raise HarnessError(f"{w.name}: no reference for master seed {inputs.master}")
    for k, (_, err) in points.items():
        if not err < P_TOL / 10:
            raise HarnessError(f"{w.name}: reference error {err:.3g} for instance {k}")
    return {k: p for k, (p, _) in points.items()}


def ground_indices(w: Workload, inputs: Inputs, k: int) -> np.ndarray:
    energy = reference.ising_energies(reference.instance_couplings(w.n_qubits, inputs.seeds[k]))
    return np.flatnonzero(energy == energy.min())


class Checker:
    """Counts the failed operations of rounds and of single anneals."""

    def __init__(self, w: Workload, inputs: Inputs):
        self.w = w
        self.inputs = inputs
        self.reference = reference_points(w, inputs)
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def _count(self, k: int, problems: list[str]) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems += [f"{self.w.name} instance {k}: {p}" for p in problems]

    def _outcome_problems(self, k: int, o: Outcome) -> list[str]:
        problems = instance_problems(o.p, o.drift, o.converged)
        if k in self.reference:
            problems += reference_problems(o.p, self.reference[k])
        return problems

    def add_round(self, outcomes: list[Outcome] | None, extra: dict[int, list[str]]) -> None:
        """Check a round; ``extra`` holds problems found for instance k elsewhere."""
        for k in range(self.w.runs):
            if outcomes is None:
                self._count(k, ["round raised"])
            else:
                self._count(k, self._outcome_problems(k, outcomes[k]) + extra.get(k, []))

    def add_anneal(self, k: int, outcome: Outcome | None, rho: np.ndarray | None) -> None:
        """Check one direct anneal of instance k (None: it raised)."""
        if outcome is None:
            self._count(k, ["anneal raised"])
            return
        problems = self._outcome_problems(k, outcome)
        if rho is not None:
            problems += density_problems(rho, ground_indices(self.w, self.inputs, k))
        self._count(k, problems)


def direct_problems(w: Workload, inputs: Inputs, rounds: list[list[Outcome] | None],
                    direct: dict) -> dict[int, list[str]]:
    """Problems of the direct anneals ``{k: (outcome, rho)}`` of a pooled workload.

    The problems found for instance k apply to it in every round.  A direct
    run must give the P the ensemble reported.  run_ensemble returns no
    density matrix, so trace, Hermiticity and positivity of rho are checked
    on the direct runs.
    """
    extra = {}
    for k, (outcome, rho) in direct.items():
        if outcome is None:
            extra[k] = ["direct anneal raised"]
            continue
        problems = [] if rho is None else density_problems(rho, ground_indices(w, inputs, k))
        if any(r is not None and abs(r[k].p - outcome.p) > 1e-12 for r in rounds):
            problems.append("P of the ensemble and of a direct run differ")
        extra[k] = problems
    return extra
