"""Density-matrix propagation of the dissipative master equation.

The master equation in reduced time,

    d/ds rho = -iT [H(s), rho] + T (L rho L^dag - {L^dag L, rho}/2),

is the kernel's form (see :mod:`annealsim.taylor_propagator`) with factor
-iT, A_0 rho = [H_i, rho] + i D[rho] and B rho = [H_f - H_i, rho], where D
is the dissipator in brackets: it is s-independent, so it has no ramp part.
The Hilbert-Schmidt norm controls truncation.

Densities live in the full 2**N space: the energy-ladder dissipator does not
respect the spin-flip symmetry, so no half-space reduction is possible here.
The 2**(2N) storage limits this module to small registers (paper-scale
experiments use 8 qubits).  The dense superoperator route that tests compare
this one against is in :mod:`annealsim.oracle`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.sparse import csr_matrix

from .spin_system import (
    IsingDiagonal, _check_qubits, full_flip_matrix, lift_to_full, uniform_initial_state
)
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


def _density_pair(n_qubits: int, full_diag: np.ndarray, l_scale: float) -> Apply:
    """The master-equation pair A_0 rho = [H_i, rho] + i D[rho], B rho = [H_f - H_i, rho].

    The pair acts on rho flattened to one vector, which the kernel treats as
    one problem (a 2-D state would be read as independent columns).  The
    commutators split into driver products (sparse flip matrix; rho H_i
    through the Hermitian-transpose trick) and field products (diagonal, so
    row and column scalings), and L^dag L of the ladder operator is diagonal
    in the computational basis.  Per term this costs four sparse-dense
    products instead of eight dense matmuls.
    """
    dim = full_diag.shape[0]
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

    def apply(flat):
        rho = flat.reshape(dim, dim)
        drv = hi @ rho - (hi @ rho.conj().T).conj().T  # [H_i, rho]
        fld = field_gaps * rho  # [H_f, rho]
        ramp = fld - drv  # [H_f - H_i, rho]
        if lind is not None:
            # new arrays, not +=, and fld held to the end: page faults follow
            # glibc's heap layout (x86-64 Linux, N=8).  The dissipator added in
            # place re-faulted the heap every term (28x the faults, 1.5x the
            # time); an in-place ramp or a short-lived fld took 15% more faults
            drv = drv + 1j * ((lind @ (lind @ rho).conj().T).conj().T - lind_sq_sums * rho)
        return drv.ravel(), ramp.ravel()

    return apply


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
    is renormalised.  A success probability outside [0, 1] flags the run
    non-converged.
    """
    n = params.n_qubits
    _check_qubits(n, MAX_DENSITY_QUBITS)
    if n != hf.n_qubits:
        raise ValueError("params and Ising instance disagree on qubit count")
    if not 0 <= l_scale < math.inf:  # NaN too
        raise ValueError(f"l_scale must be finite and >= 0, got {l_scale}")
    full_diag = hf.full_diag()
    apply = _density_pair(n, full_diag, l_scale)
    psi0 = lift_to_full(uniform_initial_state(n))
    boundary_traces: list[float] = []
    herm_drifts: list[float] = []
    rho0 = np.outer(psi0, psi0.conj()).ravel()
    for flat, terms, converged in run_segments(
        apply, -1j * params.t_anneal, rho0, params.t_anneal, schedule
    ):
        rho = flat.reshape(psi0.size, psi0.size)
        boundary_traces.append(float(np.trace(rho).real))
        herm_drifts.append(_l2(rho - rho.conj().T))
    gs_full = np.flatnonzero(full_diag == full_diag.min())
    success_p = clamp_probability(float(np.sum(np.diag(rho).real[gs_full])))
    converged = converged and 0.0 <= success_p <= 1.0
    # np.max, unlike the builtin, propagates a NaN wherever it sits
    trace_drift = float(np.max(np.abs(np.array(boundary_traces) - 1.0)))
    herm_drift = float(np.max(herm_drifts))
    return DensityPropagationResult(
        rho, success_p, trace_drift, herm_drift, terms, converged, boundary_traces
    )
