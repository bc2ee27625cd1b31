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
    IsingDiagonal, _check_qubits, csr_product, full_flip_matrix, lift_to_full, uniform_initial_state
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
    commutators split into driver products (the float64 flip matrix applied
    by :func:`csr_product`; rho H_i through the Hermitian-transpose trick)
    and field products (diagonal, so row and column scalings), and L^dag L
    of the ladder operator is diagonal in the computational basis.  Per
    term this costs four sparse-dense products instead of eight dense
    matmuls, written into ``a_out``, ``b_out`` and two work matrices owned
    by the closure, so a term allocates nothing.
    """
    dim = full_diag.shape[0]
    hi = full_flip_matrix(n_qubits)
    diag = full_diag.astype(np.float64)
    # the diagonal factors are stored complex, like rho: a float64 factor
    # would be cast through a buffer that numpy allocates on every product
    field_gaps = (diag[:, None] - diag).astype(np.complex128)  # [H_f, rho] = this * rho
    lind = None
    if l_scale > 0.0:
        dense = build_energy_lowering_op(full_diag, l_scale)
        lind = csr_matrix(dense.real)  # real entries: no complex copy per product
        # L^dag L is diagonal in the computational basis by construction
        lind_sq = np.einsum("ij,ij->j", dense.conj(), dense).real
        # {L^dag L, rho}/2 = lind_sq_sums * rho
        lind_sq_sums = (0.5 * (lind_sq[:, None] + lind_sq)).astype(np.complex128)
    work, prod = np.empty((2, dim, dim), dtype=np.complex128)

    def adjoint(m, out):  # the conjugate of a transposed view would run buffered
        np.copyto(out, m.T)
        np.conjugate(out, out=out)

    def apply(flat, a_out, b_out):
        rho = flat.reshape(dim, dim)
        drv = a_out.reshape(dim, dim)
        csr_product(hi, rho, drv)  # H_i rho
        adjoint(rho, work)
        csr_product(hi, work, prod)
        adjoint(prod, work)  # (H_i rho^dag)^dag = rho H_i
        drv -= work  # [H_i, rho]
        ramp = b_out.reshape(dim, dim)
        np.multiply(field_gaps, rho, out=ramp)  # [H_f, rho]
        ramp -= drv  # [H_f - H_i, rho]
        if lind is not None:
            csr_product(lind, rho, prod)
            adjoint(prod, work)
            csr_product(lind, work, prod)
            adjoint(prod, work)  # L rho L^dag
            np.multiply(lind_sq_sums, rho, out=prod)
            np.subtract(work, prod, out=work)
            np.multiply(1j, work, out=work)
            drv += work  # + i D[rho]

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
