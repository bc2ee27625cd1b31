"""Density-matrix propagation of the dissipative master equation.

The master equation in reduced time,

    d/ds rho = G_const[rho] + s * G_ramp[rho],

with G_const[rho] = [C, rho] + T (L rho L^dag - {L^dag L, rho}/2) and
G_ramp[rho] = [R, rho], admits the same three-term Taylor recurrence as the
pure-state case, with the Hilbert-Schmidt norm controlling truncation.  The
segment shift C -> C + s0*R applies to the commutator part only; the
dissipator is s-independent.

Densities live in the full 2**N space: the energy-ladder dissipator does not
respect the spin-flip symmetry, so no half-space reduction is possible here.
The 2**(2N) storage limits this module to small registers (paper-scale
experiments use 8 qubits).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.sparse import csr_matrix

from .errors import CapacityError, TaylorOverflowError
from .spin_system import IsingDiagonal, full_flip_matrix, lift_to_full, uniform_initial_state
from .taylor_propagator import AnnealParams, SegmentSchedule, _l2, taylor_segment

MAX_DENSITY_QUBITS = 10


@dataclass(frozen=True)
class LindbladOp:
    """Energy-ladder lowering operator with a strength prefactor."""

    matrix: np.ndarray
    scale: float

    def effective(self) -> np.ndarray:
        return self.scale * self.matrix


@dataclass(frozen=True)
class SuperopContext:
    """Generator pieces for one expansion point of the master equation.

    ``const_op`` is -iT*H(s0) (segment shift already folded in), ``ramp_op``
    is -iT*(H_f - H_i).  ``lindblad`` is the effective (scaled) jump operator
    or None for closed evolution; ``lind_sq`` caches L^dag L.
    """

    const_op: np.ndarray
    ramp_op: np.ndarray
    lindblad: np.ndarray | None
    t_anneal: float
    lind_sq: np.ndarray | None = None

    @staticmethod
    def create(
        const_op: np.ndarray,
        ramp_op: np.ndarray,
        lindblad: np.ndarray | None,
        t_anneal: float,
    ) -> "SuperopContext":
        lind_sq = None
        if lindblad is not None:
            lindblad = np.asarray(lindblad, dtype=np.complex128)
            lind_sq = lindblad.conj().T @ lindblad
        return SuperopContext(const_op, ramp_op, lindblad, t_anneal, lind_sq)


@dataclass
class DensityPropagationResult:
    rho_final: np.ndarray
    success_p: float
    trace_drift: float
    hermiticity_drift: float
    terms_per_segment: list[int]
    converged: bool
    boundary_traces: list[float]


def build_energy_lowering_op(hf_full_diag: np.ndarray, scale: float = 1.0) -> LindbladOp:
    """Ladder operator stepping down the energy-sorted basis of H_f.

    Basis indices are sorted by (energy ascending, computational index
    ascending); in that ordering the operator has sqrt(1), sqrt(2), ... on
    the first superdiagonal, then is mapped back to computational indices.
    The tie-break matters: it selects which degenerate ground state the
    dissipator relaxes towards.
    """
    diag = np.asarray(hf_full_diag)
    dim = diag.shape[0]
    order = np.argsort(diag, kind="stable")
    mat = np.zeros((dim, dim), dtype=np.complex128)
    mat[order[:-1], order[1:]] = np.sqrt(np.arange(1, dim))
    return LindbladOp(mat, scale)


def apply_liouvillian_const(rho: np.ndarray, ctx: SuperopContext) -> np.ndarray:
    """Constant generator piece: commutator plus dissipator."""
    out = ctx.const_op @ rho - rho @ ctx.const_op
    if ctx.lindblad is not None:
        lind = ctx.lindblad
        out = out + ctx.t_anneal * (
            lind @ rho @ lind.conj().T - 0.5 * (ctx.lind_sq @ rho + rho @ ctx.lind_sq)
        )
    return out


def apply_liouvillian_ramp(rho: np.ndarray, ctx: SuperopContext) -> np.ndarray:
    """Ramp generator piece: commutator with the Hamiltonian difference."""
    return ctx.ramp_op @ rho - rho @ ctx.ramp_op


def lindblad_segment(
    ctx: SuperopContext,
    rho_in: np.ndarray,
    step: float,
    tol: float,
    max_terms: int,
) -> tuple[np.ndarray, int, bool]:
    """One Taylor segment of the master equation (Hilbert-Schmidt norm stop)."""
    return taylor_segment(
        lambda rho: apply_liouvillian_const(rho, ctx),
        lambda rho: apply_liouvillian_ramp(rho, ctx),
        rho_in,
        step,
        tol,
        max_terms,
    )


class _FastDensityAction:
    """Structure-exploiting generator actions for the annealing pair.

    The commutators decompose into driver products (sparse flip matrix) and
    field products (diagonal, so row/column scalings), and L^dag L of the
    ladder operator is diagonal in the computational basis.  Per coefficient
    this costs four sparse-dense products instead of eight dense matmuls.
    """

    def __init__(self, n_qubits: int, full_diag: np.ndarray, t_anneal: float,
                 l_scale: float):
        self.hi = full_flip_matrix(n_qubits)
        self.diag = full_diag.astype(np.float64)
        self.c = -1j * t_anneal
        self.t_anneal = t_anneal
        if l_scale > 0.0:
            op = build_energy_lowering_op(full_diag, l_scale)
            lind = op.effective()
            self.lind = csr_matrix(lind)
            # L^dag L is diagonal in the computational basis by construction
            self.lind_sq_diag = np.einsum("ij,ij->j", lind.conj(), lind).real
        else:
            self.lind = None
            self.lind_sq_diag = None

    def dissipator(self, rho: np.ndarray) -> np.ndarray:
        lr = self.lind @ rho
        lrl = (self.lind @ lr.conj().T).conj().T
        return lrl - 0.5 * (self.lind_sq_diag[:, None] * rho + rho * self.lind_sq_diag[None, :])


def _density_segment(
    act: _FastDensityAction,
    s0: float,
    rho_in: np.ndarray,
    step: float,
    tol: float,
    max_terms: int,
) -> tuple[np.ndarray, int, bool]:
    """Specialised segment loop caching the (n-2) commutator products.

    The stop test is ``step**n * ||rho_n||`` through the BLAS-free
    :func:`~annealsim.taylor_propagator._l2`, as in the unitary loop.
    """
    hi, diag, c = act.hi, act.diag, act.c

    def split_products(rho):
        hi_rho = hi @ rho
        rho_hi = (hi @ rho.conj().T).conj().T  # rho H_i via Hermitian transpose trick
        comm_drv = hi_rho - rho_hi
        comm_fld = diag[:, None] * rho - rho * diag[None, :]
        return comm_drv, comm_fld

    drv_prev2, fld_prev2 = split_products(rho_in)
    term_prev = c * ((1.0 - s0) * drv_prev2 + s0 * fld_prev2)
    if act.lind is not None:
        term_prev = term_prev + act.t_anneal * act.dissipator(rho_in)
    acc = rho_in + step * term_prev
    n = 1
    converged = False
    while n < max_terms:
        n += 1
        drv, fld = split_products(term_prev)
        term = c * ((1.0 - s0) * drv + s0 * fld) + (fld_prev2 - drv_prev2) * c
        if act.lind is not None:
            term = term + act.t_anneal * act.dissipator(term_prev)
        term /= n
        scale = step**n
        acc += term * scale
        nrm = scale * _l2(term)
        if not math.isfinite(nrm):
            raise TaylorOverflowError(
                f"coefficient {n} overflowed; split the interval into more segments"
            )
        term_prev = term
        drv_prev2, fld_prev2 = drv, fld
        if nrm <= tol:
            converged = True
            break
    return acc, n, converged


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
    if schedule is None:
        schedule = SegmentSchedule()
    n = params.n_qubits
    if n > MAX_DENSITY_QUBITS:
        raise CapacityError(
            f"density evolution needs 2**(2N) storage; limit is {MAX_DENSITY_QUBITS} qubits"
        )
    if n != hf.n_qubits:
        raise ValueError("params and Ising instance disagree on qubit count")
    full_diag = hf.full_diag()
    act = _FastDensityAction(n, full_diag, params.t_anneal, l_scale)
    psi0 = lift_to_full(uniform_initial_state(n))
    rho = np.outer(psi0, psi0.conj())
    n_seg = schedule.resolve(params.t_anneal)
    step = 1.0 / n_seg
    terms: list[int] = []
    boundary_traces: list[float] = []
    converged = True
    herm_drift = 0.0
    for k in range(n_seg):
        rho, n_terms, ok = _density_segment(
            act, k * step, rho, step, schedule.tol, schedule.max_terms
        )
        terms.append(n_terms)
        converged = converged and ok
        boundary_traces.append(float(np.trace(rho).real))
        herm_drift = max(herm_drift, _l2(rho - rho.conj().T))
    gs_full = np.flatnonzero(full_diag == full_diag.min())
    success_p = _clamp_probability(float(np.sum(np.diag(rho).real[gs_full])), converged)
    trace_drift = max(abs(t - 1.0) for t in boundary_traces)
    return DensityPropagationResult(
        rho, success_p, trace_drift, herm_drift, terms, converged, boundary_traces
    )


def _clamp_probability(raw: float, strict: bool) -> float:
    """Absorb truncation noise at the [0, 1] edges; larger excess is an error."""
    if 0.0 <= raw <= 1.0:
        return raw
    if 1.0 < raw <= 1.0 + 1e-9:
        return 1.0
    if -1e-9 <= raw < 0.0:
        return 0.0
    if strict:
        raise ValueError(f"ground population {raw} outside [0, 1]; evolution blew up")
    return raw
