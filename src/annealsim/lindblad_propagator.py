"""Density-matrix propagation of the dissipative master equation.

The master equation in reduced time,

    d/ds rho = -iT [H(s), rho] + T (L rho L^dag - {L^dag L, rho}/2),

is the kernel's form (see :mod:`annealsim.taylor_propagator`) with factor
-iT, A rho = [H(s0), rho] + i D[rho] and B rho = [H_f - H_i, rho], where D
is the dissipator in brackets: it is s-independent, so it has no ramp part.
The Hilbert-Schmidt norm controls truncation.

Densities live in the full 2**N space: the energy-ladder dissipator does not
respect the spin-flip symmetry, so no half-space reduction is possible here.
The 2**(2N) storage limits this module to small registers (paper-scale
experiments use 8 qubits).  The dense superoperator route that tests compare
this one against is in :mod:`annealsim.oracle`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np
from scipy.sparse import csr_matrix

from .errors import CapacityError
from .spin_system import IsingDiagonal, full_flip_matrix, lift_to_full, uniform_initial_state
from .taylor_propagator import (
    AnnealParams,
    Apply,
    SegmentSchedule,
    _l2,
    clamp_probability,
    run_segments,
)

MAX_DENSITY_QUBITS = 10


@dataclass
class DensityPropagationResult:
    rho_final: np.ndarray
    success_p: float
    trace_drift: float
    hermiticity_drift: float
    terms_per_segment: list[int]
    converged: bool
    boundary_traces: list[float]


def build_energy_lowering_op(hf_full_diag: np.ndarray, scale: float = 1.0) -> np.ndarray:
    """Ladder operator stepping down the energy-sorted basis of H_f, times ``scale``.

    Basis indices are sorted by (energy ascending, computational index
    ascending); in that ordering the operator has sqrt(1), sqrt(2), ... on
    the first superdiagonal, then is mapped back to computational indices.
    The tie-break matters: it selects which degenerate ground state the
    dissipator relaxes towards.  Returns the dense complex matrix.
    """
    diag = np.asarray(hf_full_diag)
    dim = diag.shape[0]
    order = np.argsort(diag, kind="stable")
    mat = np.zeros((dim, dim), dtype=np.complex128)
    mat[order[:-1], order[1:]] = scale * np.sqrt(np.arange(1, dim))
    return mat


def _density_pair(
    n_qubits: int, full_diag: np.ndarray, l_scale: float
) -> Callable[[float], Apply]:
    """Closure factory ``make_apply(s0)`` for the master-equation pair.

    The commutators split into driver products (sparse flip matrix; rho H_i
    through the Hermitian-transpose trick) and field products (diagonal, so
    row and column scalings), and L^dag L of the ladder operator is diagonal
    in the computational basis.  Per term this costs four sparse-dense
    products instead of eight dense matmuls.
    """
    hi = full_flip_matrix(n_qubits).astype(np.complex128)  # no upcast per product
    diag = full_diag.astype(np.float64)
    field_gaps = diag[:, None] - diag  # [H_f, rho] = field_gaps * rho
    lind = None
    if l_scale > 0.0:
        dense = build_energy_lowering_op(full_diag, l_scale)
        lind = csr_matrix(dense)
        # L^dag L is diagonal in the computational basis by construction
        lind_sq = np.einsum("ij,ij->j", dense.conj(), dense).real
        lind_sq_sums = 0.5 * (lind_sq[:, None] + lind_sq)  # {L^dag L, rho}/2 = this * rho

    def make_apply(s0: float) -> Apply:
        def apply(rho):
            drv = hi @ rho - (hi @ rho.conj().T).conj().T  # [H_i, rho]
            fld = field_gaps * rho  # [H_f, rho]
            const = (1.0 - s0) * drv + s0 * fld
            if lind is not None:
                # a new array, not +=: in place, the heap was re-faulted every term
                # (28x the page faults, 1.5x the time at N=8 on x86-64 Linux, glibc)
                const = const + 1j * ((lind @ (lind @ rho).conj().T).conj().T - lind_sq_sums * rho)
            return const, fld - drv

        return apply

    return make_apply


def propagate_density(
    params: AnnealParams,
    hf: IsingDiagonal,
    l_scale: float,
    schedule: SegmentSchedule | None = None,
) -> DensityPropagationResult:
    """Evolve rho from the pure uniform state to s=1 in the full space.

    The success probability is the total ground-space population
    Tr(Pi rho(1)), read off the real diagonal.  Trace and Hermiticity drifts
    are recorded at every segment boundary as fidelity diagnostics; nothing
    is renormalised.
    """
    n = params.n_qubits
    if n > MAX_DENSITY_QUBITS:
        raise CapacityError(
            f"density evolution needs 2**(2N) storage; limit is {MAX_DENSITY_QUBITS} qubits"
        )
    if n != hf.n_qubits:
        raise ValueError("params and Ising instance disagree on qubit count")
    full_diag = hf.full_diag()
    make_apply = _density_pair(n, full_diag, l_scale)
    psi0 = lift_to_full(uniform_initial_state(n))
    boundary_traces: list[float] = []
    herm_drift = 0.0
    for rho, terms, converged in run_segments(
        make_apply, -1j * params.t_anneal, np.outer(psi0, psi0.conj()), params.t_anneal, schedule
    ):
        boundary_traces.append(float(np.trace(rho).real))
        herm_drift = max(herm_drift, _l2(rho - rho.conj().T))
    gs_full = np.flatnonzero(full_diag == full_diag.min())
    success_p = clamp_probability(float(np.sum(np.diag(rho).real[gs_full])), converged)
    trace_drift = max(abs(t - 1.0) for t in boundary_traces)
    return DensityPropagationResult(
        rho, success_p, trace_drift, herm_drift, terms, converged, boundary_traces
    )
