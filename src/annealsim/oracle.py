"""Reference routes that validate the Taylor propagators, and the two-level benchmark.

The fixed-step RK4 integrators here share nothing with the recurrence code
except the Hamiltonian constructors, so agreement between the two routes is
evidence of correctness rather than a tautology.  The dense superoperator
route (:class:`SuperopContext`, :func:`lindblad_segment`) runs the Taylor
kernel on full matrices, as the reference that the structured Lindblad pair
is checked against.  Also hosts dense spectral analysis and the two-level
avoided-crossing (Landau-Zener) benchmark with its production propagator
:func:`lz_propagate` (the ``lz`` and ``lz-sweep`` commands).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .spin_system import (
    IsingDiagonal, _check_qubits, full_flip_matrix, lift_to_full, uniform_initial_state
)
from .taylor_propagator import SegmentSchedule, run_segments, taylor_segment

MAX_DENSE_QUBITS = 10

SIGMA_X = np.array([[0.0, 1.0], [1.0, 0.0]])
SIGMA_Z = np.array([[1.0, 0.0], [0.0, -1.0]])


@dataclass(frozen=True)
class LZParams:
    """Avoided-crossing benchmark: H(s) = (1-2s) sigma_z + delta sigma_x."""

    delta: float
    t_anneal: float

    def __post_init__(self):
        if not 0 < self.delta < math.inf:  # NaN too
            raise ValueError(f"delta must be positive and finite, got {self.delta}")
        if not 0 < self.t_anneal < math.inf:  # NaN too
            raise ValueError(f"anneal time must be positive and finite, got {self.t_anneal}")


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


@dataclass(frozen=True)
class SpectralSlice:
    s: float
    eigenvalues: np.ndarray
    gap: float


@dataclass
class LZResult:
    psi_final: np.ndarray
    success_p: float
    terms_per_segment: list[int]
    converged: bool


def _rk4_fixed(rhs, y0: np.ndarray, steps: int) -> np.ndarray:
    h = 1.0 / steps
    y = y0
    for i in range(steps):
        s = i * h
        k1 = rhs(s, y)
        k2 = rhs(s + 0.5 * h, y + (0.5 * h) * k1)
        k3 = rhs(s + 0.5 * h, y + (0.5 * h) * k2)
        k4 = rhs(s + h, y + h * k3)
        y = y + (h / 6.0) * (k1 + 2.0 * (k2 + k3) + k4)
    return y


def rk4_schrodinger_batch(
    n_qubits: int,
    full_diags: np.ndarray,
    t_anneal: float,
    steps: int | None = None,
) -> np.ndarray:
    """Fixed-step RK4 for a batch of Ising instances sharing the driver.

    ``full_diags`` has shape (batch, 2**N); states are full-space vectors.
    Batching turns the 4 evaluations per step into small dense matmuls,
    which is what makes the oracle-equivalence sweeps affordable.
    """
    _check_qubits(n_qubits, MAX_DENSE_QUBITS)
    dim = 1 << n_qubits
    hi = full_flip_matrix(n_qubits).toarray().astype(np.complex128)
    diags = np.atleast_2d(np.asarray(full_diags, dtype=np.float64))
    if steps is None:  # keeps T*||H||/steps well below 1
        steps = max(10_000, math.ceil(100.0 * t_anneal * n_qubits**2))
    if diags.shape[1] != dim:
        raise ValueError("diagonal length does not match 2**N")
    psi0 = np.tile(lift_to_full(uniform_initial_state(n_qubits)), (diags.shape[0], 1))
    c = -1j * t_anneal

    def rhs(s, psi):
        return c * ((1.0 - s) * (psi @ hi) + s * (diags * psi))

    return _rk4_fixed(rhs, psi0, steps)


def rk4_schrodinger(
    n_qubits: int,
    hf: IsingDiagonal,
    t_anneal: float,
    steps: int | None = None,
) -> np.ndarray:
    """Full-space RK4 integration of one annealing instance."""
    return rk4_schrodinger_batch(n_qubits, hf.full_diag()[None, :], t_anneal, steps)[0]


def rk4_lindblad(
    ctx: SuperopContext, t_anneal: float, steps: int, rho0: np.ndarray
) -> np.ndarray:
    """Fixed-step RK4 for the master equation over the whole s-interval.

    ``ctx`` supplies the global generator pieces (segment shift zero); the
    right-hand side is written out here, independent of
    :func:`apply_liouvillian_const` and the Taylor kernel.
    """
    const_op = np.asarray(ctx.const_op)
    ramp_op = np.asarray(ctx.ramp_op)
    lind, lind_sq = ctx.lindblad, ctx.lind_sq

    def rhs(s, rho):
        gen = const_op + s * ramp_op
        out = gen @ rho - rho @ gen
        if lind is not None:
            out = out + ctx.t_anneal * (
                lind @ rho @ lind.conj().T - 0.5 * (lind_sq @ rho + rho @ lind_sq)
            )
        return out

    return _rk4_fixed(rhs, rho0.astype(np.complex128), steps)


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
    shape = rho_in.shape

    def apply(flat, a_out, b_out):  # the kernel takes rho flattened: one problem, not columns
        rho = flat.reshape(shape)
        np.copyto(a_out.reshape(shape), apply_liouvillian_const(rho, ctx))
        np.copyto(b_out.reshape(shape), apply_liouvillian_ramp(rho, ctx))

    rho, terms, ok = taylor_segment(apply, 1.0, rho_in.ravel(), step, tol, max_terms)
    return rho.reshape(shape), terms, ok


def dense_spectrum(n_qubits: int, hf: IsingDiagonal, s: float) -> SpectralSlice:
    """Eigenvalues of (1-s) H_i + s H_f in the full space, ascending."""
    _check_qubits(n_qubits, MAX_DENSE_QUBITS)
    h = (1.0 - s) * full_flip_matrix(n_qubits).toarray()
    h[np.diag_indices_from(h)] += s * hf.full_diag()
    eigenvalues = np.linalg.eigvalsh(h)
    return SpectralSlice(s, eigenvalues, float(eigenvalues[1] - eigenvalues[0]))


def lz_hamiltonian(delta: float, s: float) -> np.ndarray:
    return (1.0 - 2.0 * s) * SIGMA_Z + delta * SIGMA_X


def lz_gap(delta: float, s: float) -> float:
    """Exact two-level gap 2*sqrt(delta^2 + (1-2s)^2), minimal at s = 1/2."""
    return 2.0 * math.sqrt(delta**2 + (1.0 - 2.0 * s) ** 2)


def lz_ground_state(delta: float, s: float) -> np.ndarray:
    """Ground state of H(s), phase fixed: largest component real positive."""
    _, vecs = np.linalg.eigh(lz_hamiltonian(delta, s))
    g = vecs[:, 0].astype(np.complex128)
    pivot = int(np.argmax(np.abs(g)))
    g *= np.abs(g[pivot]) / g[pivot]
    return g


def lz_propagate(params: LZParams, schedule: SegmentSchedule | None = None) -> LZResult:
    """Run the Taylor recurrence on the two-level benchmark.

    The success probability is the squared overlap with the ground state of
    H(1).  With a single segment and a large T the intermediate sums blow up
    and the run comes back non-converged with a wildly large state; that
    pathology is reported as-is, never masked.
    """
    t = params.t_anneal
    h0 = lz_hamiltonian(params.delta, 0.0)
    const = -1j * t * h0
    ramp = -1j * t * (lz_hamiltonian(params.delta, 1.0) - h0)

    def apply(v, a_out, b_out):
        np.matmul(const, v, out=a_out)
        np.matmul(ramp, v, out=b_out)

    psi0 = lz_ground_state(params.delta, 0.0)
    for psi, terms, converged in run_segments(apply, 1.0, psi0, t, schedule):
        pass  # only the state at s = 1 is needed
    g1 = lz_ground_state(params.delta, 1.0)
    p = float(np.abs(np.vdot(g1, psi)) ** 2)
    return LZResult(psi, p, terms, converged)


def rk4_landau_zener(params: LZParams, steps: int) -> tuple[np.ndarray, float]:
    """RK4 route for the two-level benchmark, for cross-validation."""
    t = params.t_anneal
    h0 = lz_hamiltonian(params.delta, 0.0)
    dh = lz_hamiltonian(params.delta, 1.0) - h0
    psi0 = lz_ground_state(params.delta, 0.0)

    def rhs(s, psi):
        return -1j * t * ((h0 + s * dh) @ psi)

    psi1 = _rk4_fixed(rhs, psi0, steps)
    g1 = lz_ground_state(params.delta, 1.0)
    return psi1, float(np.abs(np.vdot(g1, psi1)) ** 2)
