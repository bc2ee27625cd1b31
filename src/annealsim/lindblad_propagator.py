"""Density-matrix propagation of the dissipative master equation.

The master equation in reduced time,

    d/ds rho = -iT [H(s), rho] + T (L rho L^dag - {L^dag L, rho}/2),

is the kernel's form (see :mod:`annealsim.taylor_propagator`) with factor
-iT, A_0 rho = [H_i, rho] + i D[rho] and B rho = [H_f - H_i, rho], where D
is the dissipator in brackets: it is s-independent, so it has no ramp part.
The Hilbert-Schmidt norm controls truncation.  The generator maps Hermitian
matrices to Hermitian ones, and the pair keeps every coefficient exactly so.

Densities live in the full 2**N space: the energy-ladder dissipator does not
respect the spin-flip symmetry, so no half-space reduction is possible here.
The 2**(2N) storage limits this module to small registers (paper-scale
experiments use 8 qubits).  The tests check this pair against a dense
superoperator route and an RK4 reference, both in ``tests/oracle.py``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .spin_system import (
    IsingDiagonal, _check_qubits, csr_product, full_flip_matrix, lift_to_full, uniform_initial_state
)
from .taylor_propagator import AnnealParams, Apply, SegmentSchedule, run_segments, settle

MAX_DENSITY_QUBITS = 10


@dataclass
class DensityPropagationResult:
    """``trace_drift`` is the largest |Tr rho - 1| at a segment boundary;
    see :func:`propagate_density`."""

    rho_final: np.ndarray
    success_p: float
    trace_drift: float
    terms_per_segment: list[int]
    converged: bool


def build_energy_lowering_op(
    hf_full_diag: np.ndarray, scale: float = 1.0
) -> tuple[np.ndarray, np.ndarray]:
    """Ladder operator stepping down the energy-sorted basis of H_f, times ``scale``.

    Basis indices are sorted by (energy ascending, computational index
    ascending); in that ordering the operator has sqrt(1), sqrt(2), ... on
    the first superdiagonal, then is mapped back to computational indices.
    The tie-break matters: it selects which degenerate ground state the
    dissipator relaxes towards.  Returns the operator's one entry per row
    as ``(src, w)``: row i holds ``w[i]`` at column ``src[i]``, and the
    empty row of the top energy holds weight 0 at column 0.
    """
    order = np.argsort(hf_full_diag, kind="stable")
    src = np.zeros(order.size, dtype=np.intp)
    w = np.zeros(order.size)
    src[order[:-1]] = order[1:]
    w[order[:-1]] = scale * np.sqrt(np.arange(1, order.size))
    return src, w


def _density_pair(n_qubits: int, full_diag: np.ndarray, l_scale: float) -> Apply:
    """The master-equation pair A_0 rho = [H_i, rho] + i D[rho], B rho = [H_f - H_i, rho].

    The pair acts on rho flattened to one vector, which the kernel treats as
    one problem (a 2-D state would be read as independent columns).  Every
    coefficient is Hermitian, so rho H_i = (H_i rho)^dag: the driver
    commutator is X - X^dag with X = H_i rho, one :func:`csr_product` of the
    float64 flip matrix.  The field commutator scales by the energy gaps.
    The ladder operator has one entry per row, w_i at column src_i, so
    L rho L^dag = (w w^T) * rho[src][:, src] is a gather, and L^dag L is
    diagonal.  Each operation treats an entry and its mirror alike, so the
    outputs are exactly (anti-)Hermitian.  A term writes into ``a_out``,
    ``b_out`` and closure-owned work matrices (a second one only when
    dissipating), and allocates nothing.
    """
    dim = full_diag.shape[0]
    hi = full_flip_matrix(n_qubits)
    diag = full_diag.astype(np.float64)
    # the factors are stored complex, like rho: a float64 factor would be
    # cast through a buffer that numpy allocates on every product
    field_gaps = (diag[:, None] - diag).astype(np.complex128)  # [H_f, rho] = this * rho
    dissipates = l_scale > 0.0
    work = np.empty((dim, dim), dtype=np.complex128)
    if dissipates:
        gather, w = build_energy_lowering_op(full_diag, l_scale)
        lind_sq = np.bincount(gather, w * w, dim)  # L^dag L is diagonal
        gain = 1j * np.outer(w, w)  # one symmetric matrix, so mirrors round alike
        loss = 0.5j * (lind_sq[:, None] + lind_sq)  # i {L^dag L, rho}/2 = loss * rho
        prod = np.empty_like(work)

    def apply(flat, a_out, b_out):
        rho = flat.reshape(dim, dim)
        drv = a_out.reshape(dim, dim)
        csr_product(hi, rho, drv)  # X = H_i rho
        np.copyto(work, drv.T)  # conjugating the transposed view would run buffered
        np.conjugate(work, out=work)
        drv -= work  # [H_i, rho] = X - X^dag
        ramp = b_out.reshape(dim, dim)
        np.multiply(field_gaps, rho, out=ramp)  # [H_f, rho]
        ramp -= drv  # [H_f - H_i, rho]
        if dissipates:
            # mode="clip" writes straight into out; "raise" buffers a whole copy
            np.take(rho, gather, axis=0, out=work, mode="clip")
            np.take(work, gather, axis=1, out=prod, mode="clip")
            np.multiply(gain, prod, out=prod)  # i L rho L^dag
            np.multiply(loss, rho, out=work)
            np.subtract(prod, work, out=prod)
            drv += prod  # + i D[rho]

    return apply


def propagate_density(
    params: AnnealParams,
    hf: IsingDiagonal,
    l_scale: float,
    schedule: SegmentSchedule | None = None,
) -> DensityPropagationResult:
    """Evolve rho from the pure uniform state to s=1 in the full space.

    The success probability is the total ground-space population
    Tr(Pi rho(1)), read off the real diagonal.  rho stays exactly Hermitian
    (see :func:`_density_pair`), so its trace is the weight by which
    :func:`~annealsim.taylor_propagator.run_segments` judges the run;
    nothing is renormalised.
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
    dim = psi0.size
    flat, terms, drift, converged = run_segments(
        apply, -1j * params.t_anneal, np.outer(psi0, psi0.conj()).ravel(), params.t_anneal,
        schedule, lambda v: np.trace(v.reshape(dim, dim)).real,
    )
    rho = flat.reshape(dim, dim)
    gs_full = np.flatnonzero(full_diag == full_diag.min())
    success_p, converged = settle(float(np.sum(np.diag(rho).real[gs_full])), bool(converged))
    return DensityPropagationResult(rho, success_p, float(drift), terms, converged)
