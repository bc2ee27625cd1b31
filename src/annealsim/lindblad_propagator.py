"""Density-matrix propagation of the dissipative master equation.

The master equation in reduced time,

    d/ds rho = -iT [H(s), rho] + T (L rho L^dag - {L^dag L, rho}/2),

has a real symmetric H(s) and a real ladder L here.  With rho = R + iI (R
symmetric, I antisymmetric), the real M = R + I holds rho whole and obeys

    d/ds M = T ([H(s), M]^T + D[M]),   D[M] = L M L^T - {L^T L, M}/2.

That is the kernel's form (see :mod:`annealsim.taylor_propagator`) with the
real factor T, A_0 M = [H_i, M]^T + D[M] and B M = [H_f - H_i, M]^T; D is
s-independent, so it has no ramp part.  Every real M is a Hermitian rho.
As <R, I> = 0, ||M||_F is the Hilbert-Schmidt norm of rho, which controls
truncation, and Tr M = Tr rho.

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
    IsingDiagonal, _check_qubits, csr_product, full_flip_matrix, ground_space, lift_to_full,
    uniform_initial_state,
)
from .taylor_propagator import AnnealParams, Generator, SegmentSchedule, run_segments, settle

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


def _density_pair(
    n_qubits: int, full_diag: np.ndarray, l_scale: float, t_anneal: float
) -> Generator:
    """The master-equation generator: A_0 M = [H_i, M]^T + D[M], B M = [H_f - H_i, M]^T.

    The factor is T.  The pair acts on M flattened to one vector, which the
    kernel treats as one problem weighed by its trace (a 2-D state would be
    read as independent columns); its bound adds ||L^T L|| = l_scale^2
    (2^N - 1) to the Ising pair's.  As H_i is symmetric, [H_i, M]^T =
    (H_i M)^T - H_i M^T, two :func:`csr_product` calls, and [H_f, M]^T
    scales M^T by the energy gaps.  The ladder has one entry per row, w_i
    at column src_i, so L M L^T = (w w^T) * M[src][:, src] is a gather, and
    L^T L is diagonal.  A term writes into ``a_out``, ``b_out`` and
    closure-owned work matrices (a second one only when dissipating), and
    allocates nothing.
    """
    dim = full_diag.shape[0]
    hi = full_flip_matrix(n_qubits)
    field_gaps = (full_diag - full_diag[:, None]).astype(np.float64)  # [H_f, M]^T = this * M^T
    dissipates = l_scale > 0.0
    work = np.empty((dim, dim))
    if dissipates:
        gather, w = build_energy_lowering_op(full_diag, l_scale)
        lind_sq = np.bincount(gather, w * w, dim)  # L^T L is diagonal
        gain = np.outer(w, w)
        loss = 0.5 * (lind_sq[:, None] + lind_sq)  # {L^T L, M}/2 = loss * M
        prod = np.empty_like(work)

    def apply(flat, a_out, b_out):
        m, drv, ramp = flat.reshape(dim, dim), a_out.reshape(dim, dim), b_out.reshape(dim, dim)
        np.copyto(work, m.T)  # a ufunc reading the transposed view would run buffered
        csr_product(hi, m, ramp)  # H_i M
        np.copyto(drv, ramp.T)
        csr_product(hi, work, ramp)  # H_i M^T
        drv -= ramp  # [H_i, M]^T
        np.multiply(field_gaps, work, out=ramp)  # [H_f, M]^T
        ramp -= drv  # [H_f - H_i, M]^T
        if dissipates:
            # mode="clip" writes straight into out; "raise" buffers a whole copy
            np.take(m, gather, axis=0, out=work, mode="clip")
            np.take(work, gather, axis=1, out=prod, mode="clip")
            np.multiply(gain, prod, out=prod)  # L M L^T
            np.multiply(loss, m, out=work)
            np.subtract(prod, work, out=prod)
            drv += prod  # + D[M]

    bound = n_qubits + n_qubits * (n_qubits - 1) / 2 + l_scale**2 * (dim - 1)
    return Generator(apply, t_anneal, lambda v: np.trace(v.reshape(dim, dim)), bound)


def propagate_density(
    params: AnnealParams,
    hf: IsingDiagonal,
    l_scale: float,
    schedule: SegmentSchedule | None = None,
) -> DensityPropagationResult:
    """Evolve rho from the pure uniform state to s=1 in the full space.

    The kernel runs M = Re rho + Im rho (see :func:`_density_pair`) from
    M_0 = psi_0 psi_0^T, judged by its trace (see
    :func:`~annealsim.taylor_propagator.run_segments`); nothing is
    renormalised.  ``rho_final`` = (M + M^T)/2 + i(M - M^T)/2 is Hermitian by
    construction, and P = Tr(Pi rho(1)) is read off its diagonal.
    """
    n = params.n_qubits
    _check_qubits(n, MAX_DENSITY_QUBITS)
    if n != hf.n_qubits:
        raise ValueError("params and Ising instance disagree on qubit count")
    if not 0 <= l_scale < math.inf:  # NaN too
        raise ValueError(f"l_scale must be finite and >= 0, got {l_scale}")
    full_diag = hf.full_diag()
    psi0 = lift_to_full(uniform_initial_state(n)).real
    dim = psi0.size
    flat, terms, drift, converged = run_segments(
        _density_pair(n, full_diag, l_scale, params.t_anneal), np.outer(psi0, psi0).ravel(),
        params.t_anneal, schedule,
    )
    m = flat.reshape(dim, dim)
    rho = (m + m.T) / 2 + 0.5j * (m - m.T)
    p = float(np.sum(np.diag(m)[ground_space(full_diag)]))
    success_p, converged = settle(p, bool(converged))
    return DensityPropagationResult(rho, success_p, float(drift), terms, converged)
