"""Reference routes that the tests check the Taylor propagators against.

The fixed-step RK4 integrators here share nothing with the recurrence code
except the Hamiltonian constructors, so agreement between the two routes is
evidence of correctness rather than a tautology (``test_oracle`` checks that
they call no kernel function).  Each sizes its own step count from the
norm bound T*||A|| of its generator, and also runs at half that count: the
difference of the two is a step-doubling estimate of its own error.  The
dense superoperator route (:class:`SuperopContext`, :func:`lindblad_segment`)
runs the Taylor kernel on full matrices, as the reference that the
structured Lindblad pair is checked against, with the dense ladder
operator of its dissipator (:func:`energy_lowering_matrix`).  Also here:
dense spectra, the exact two-level gap, the coefficient norms of a segment
with its majorant (the recurrence and its closed form) and the alternative
power stopping rule, which reads those norms.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
from scipy.sparse import csr_matrix

from annealsim.landau_zener import LZParams, lz_ground_state, lz_hamiltonian
from annealsim.spin_system import (
    CSR, IsingDiagonal, _check_qubits, full_flip_matrix, lift_to_full, uniform_initial_state
)
from annealsim.taylor_propagator import _Problems, taylor_segment

MAX_DENSE_QUBITS = 10
# The paper's Landau-Zener benchmark (delta = 1, T = 20).  Its digits from
# the two-segment Taylor run carry about 7e-11 of roundoff; its RK figure is
# the converged value, which 4, 8, 32 and 128 segments at tol 1e-15 give
# within 1e-14.
LZ_P_TWO_SEGMENTS = 0.999801214304354
LZ_P_CONVERGED = 0.999801214234416
# Default RK4 steps per unit of T*||A||.  On the oracle-equivalence sweep
# (N = 2-6, T = 1, 4, 10) the largest step-doubling estimate of P is 7.9e-10
# at 40, and 2.5e-8 at 20.
STEPS_PER_UNIT = 40


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


class Reference(NamedTuple):
    """An RK4 reference: ``final`` is the result at ``steps`` steps.

    ``error`` is the step-doubling estimate |x_h - x_2h| / 15 of its error,
    from a second pass at half the steps (RK4 is fourth order, so the fine
    pass's error is about a fifteenth of the difference).  x is the success
    probability ``p``, one per instance for a batch.  The density route has
    no ground space: there ``p`` is None and x is rho, in the
    Hilbert-Schmidt norm.
    """

    final: np.ndarray
    p: np.ndarray | float | None
    error: np.ndarray | float
    steps: int


def scipy_csr(mat: CSR) -> csr_matrix:
    """The square :class:`~annealsim.spin_system.CSR` ``mat`` as scipy's CSR matrix on its arrays."""
    n = mat.indptr.size - 1
    return csr_matrix((mat.data, mat.indices, mat.indptr), shape=(n, n))


def rk4_steps(scale: float) -> int:
    """Default step count for a generator whose T*||A(s)|| is at most ``scale``:
    :data:`STEPS_PER_UNIT` per unit, rounded up to an even count."""
    return 2 * max(1, math.ceil(STEPS_PER_UNIT * scale / 2))


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


def _rk4_doubled(rhs, y0: np.ndarray, steps: int) -> tuple[np.ndarray, np.ndarray]:
    """:func:`_rk4_fixed` at ``steps`` and at half as many: the fine and the coarse result."""
    if steps < 2 or steps % 2:
        raise ValueError(f"steps must be even and >= 2, got {steps}")
    return _rk4_fixed(rhs, y0, steps), _rk4_fixed(rhs, y0, steps // 2)


def rk4_schrodinger_batch(
    n_qubits: int,
    full_diags: np.ndarray,
    t_anneal: float,
    steps: int | None = None,
) -> Reference:
    """Fixed-step RK4 for a batch of Ising instances sharing the driver.

    ``full_diags`` has shape (batch, 2**N); states are full-space vectors,
    and ``p`` holds each instance's ground-space weight.  Batching turns the
    4 evaluations per step into small dense matmuls, which is what makes the
    oracle-equivalence sweeps affordable.
    """
    _check_qubits(n_qubits, MAX_DENSE_QUBITS)
    dim = 1 << n_qubits
    hi = scipy_csr(full_flip_matrix(n_qubits)).toarray().astype(np.complex128)
    diags = np.atleast_2d(np.asarray(full_diags, dtype=np.float64))
    if steps is None:  # ||H(s)|| <= N + max|E|
        steps = rk4_steps(t_anneal * (n_qubits + np.abs(diags).max()))
    if diags.shape[1] != dim:
        raise ValueError("diagonal length does not match 2**N")
    psi0 = np.tile(lift_to_full(uniform_initial_state(n_qubits)), (diags.shape[0], 1))
    c = -1j * t_anneal

    def rhs(s, psi):
        return c * ((1.0 - s) * (psi @ hi) + s * (diags * psi))

    fine, coarse = _rk4_doubled(rhs, psi0, steps)
    ground = diags == diags.min(axis=1, keepdims=True)
    p, p_coarse = (np.sum(np.abs(y) ** 2, axis=1, where=ground) for y in (fine, coarse))
    return Reference(fine, p, np.abs(p - p_coarse) / 15.0, steps)


def rk4_schrodinger(
    n_qubits: int,
    hf: IsingDiagonal,
    t_anneal: float,
    steps: int | None = None,
) -> Reference:
    """Full-space RK4 integration of one annealing instance."""
    ref = rk4_schrodinger_batch(n_qubits, hf.full_diag()[None, :], t_anneal, steps)
    return Reference(ref.final[0], float(ref.p[0]), float(ref.error[0]), ref.steps)


def rk4_lindblad(ctx: SuperopContext, rho0: np.ndarray, steps: int | None = None) -> Reference:
    """Fixed-step RK4 for the master equation over the whole s-interval.

    ``ctx`` supplies the global generator pieces (segment shift zero); the
    right-hand side is written out here, independent of
    :func:`apply_liouvillian_const` and the Taylor kernel.
    """
    const_op = np.asarray(ctx.const_op)
    ramp_op = np.asarray(ctx.ramp_op)
    lind, lind_sq = ctx.lindblad, ctx.lind_sq
    if steps is None:
        # the commutator is at most twice T*||H(s)||, which peaks at an end of
        # [0, 1]; the dissipator adds T*||L^dag L||
        scale = 2.0 * max(np.linalg.norm(const_op, 2), np.linalg.norm(const_op + ramp_op, 2))
        if lind_sq is not None:
            scale += ctx.t_anneal * np.linalg.norm(lind_sq, 2)
        steps = rk4_steps(scale)

    def rhs(s, rho):
        gen = const_op + s * ramp_op
        out = gen @ rho - rho @ gen
        if lind is not None:
            out = out + ctx.t_anneal * (
                lind @ rho @ lind.conj().T - 0.5 * (lind_sq @ rho + rho @ lind_sq)
            )
        return out

    fine, coarse = _rk4_doubled(rhs, rho0.astype(np.complex128), steps)
    return Reference(fine, None, float(np.linalg.norm(fine - coarse)) / 15.0, steps)


def rk4_landau_zener(params: LZParams, steps: int | None = None) -> Reference:
    """RK4 route for the two-level benchmark, for cross-validation."""
    t = params.t_anneal
    h0 = lz_hamiltonian(params.delta, 0.0)
    dh = lz_hamiltonian(params.delta, 1.0) - h0
    psi0 = lz_ground_state(params.delta, 0.0)
    if steps is None:  # ||H(s)|| = sqrt((1-2s)^2 + delta^2) <= sqrt(1 + delta^2)
        steps = rk4_steps(t * math.sqrt(1.0 + params.delta**2))

    def rhs(s, psi):
        return -1j * t * ((h0 + s * dh) @ psi)

    fine, coarse = _rk4_doubled(rhs, psi0, steps)
    g1 = lz_ground_state(params.delta, 1.0)
    p, p_coarse = (float(np.abs(np.vdot(g1, y)) ** 2) for y in (fine, coarse))
    return Reference(fine, p, abs(p - p_coarse) / 15.0, steps)


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


def energy_lowering_matrix(hf_full_diag: np.ndarray, scale: float = 1.0) -> np.ndarray:
    """The dense ladder operator of the dissipator, as a complex matrix.

    In the basis sorted by (energy ascending, computational index
    ascending) it has ``scale`` times sqrt(1), sqrt(2), ... on the first
    superdiagonal; the tie-break selects which degenerate ground state the
    dissipator relaxes towards.  The reference for the row form of
    :func:`annealsim.lindblad_propagator.build_energy_lowering_op`.
    """
    diag = np.asarray(hf_full_diag)
    dim = diag.shape[0]
    order = np.argsort(diag, kind="stable")
    mat = np.zeros((dim, dim), dtype=np.complex128)
    mat[order[:-1], order[1:]] = scale * np.sqrt(np.arange(1, dim))
    return mat


def dense_spectrum(n_qubits: int, hf: IsingDiagonal, s: float) -> SpectralSlice:
    """Eigenvalues of (1-s) H_i + s H_f in the full space, ascending."""
    _check_qubits(n_qubits, MAX_DENSE_QUBITS)
    h = (1.0 - s) * scipy_csr(full_flip_matrix(n_qubits)).toarray()
    h[np.diag_indices_from(h)] += s * hf.full_diag()
    eigenvalues = np.linalg.eigvalsh(h)
    return SpectralSlice(s, eigenvalues, float(eigenvalues[1] - eigenvalues[0]))


def lz_gap(delta: float, s: float) -> float:
    """Exact two-level gap 2*sqrt(delta^2 + (1-2s)^2), minimal at s = 1/2."""
    return 2.0 * math.sqrt(delta**2 + (1.0 - 2.0 * s) ** 2)


@dataclass(frozen=True)
class BoundSequence:
    """Majorant values p_n/n! bounding the Taylor coefficient norms."""

    a: float
    b: float
    values: np.ndarray


def segment_coefficient_norms(apply, psi_in: np.ndarray, n_terms: int) -> np.ndarray:
    """Norms ||psi_n|| of the first ``n_terms`` coefficients of the pair ``apply``.

    Runs :func:`taylor_segment` (factor 1, unit step) with no early stop,
    recording the norm of every coefficient ``apply`` is given, the input to
    the power stopping rule.  Raises :class:`OverflowError` if a coefficient
    overflows.
    """
    norms = []

    def recording(v, a_out, b_out):
        norms.append(math.sqrt(_Problems.squares(v)))
        return apply(v, a_out, b_out)

    _, terms, _ = taylor_segment(recording, 1.0, psi_in, 1.0, -math.inf, max(n_terms + 1, 2))
    if not np.all(terms):  # psi_n overflowed after the n norms recorded
        raise OverflowError(f"coefficient {len(norms)} overflowed")
    return np.array(norms[: n_terms + 1])


def coefficient_bound_recurrence(a: float, b: float, n_max: int) -> BoundSequence:
    """Majorant sequence p_n/n! from the scalar three-term recurrence.

    p_{n+1} = a p_n + n b p_{n-1} with p_0 = 1, p_1 = a.  The values
    q_n = p_n/n! obey q_{n+1} = (a q_n + b q_{n-1}) / (n+1), the kernel's
    recurrence for the scalar pair (a, b), so no factorial overflows.  They
    are exact from about 1e-154 to 1e154, where their square is a normal
    float; above that :func:`segment_coefficient_norms` raises
    :class:`OverflowError`, so no value returned is ever non-finite.
    """
    if a <= 0 or b < 0:
        raise ValueError("need a > 0 and b >= 0")

    def apply(v, a_out, b_out):
        np.multiply(a, v, out=a_out)
        np.multiply(b, v, out=b_out)

    return BoundSequence(a, b, segment_coefficient_norms(apply, np.ones(1), n_max))


def coefficient_bound_closed(a: float, b: float, n: int) -> float:
    """Closed form of p_n/n!: sum_k a^(n-2k) b^k / (k! (n-2k)! 2^k).

    Equivalent to the double-factorial expansion of the recurrence
    polynomials (p_2 = a^2 + b, p_3 = a^3 + 3ab, ...).
    """
    if a <= 0 or b < 0:
        raise ValueError("need a > 0 and b >= 0")
    if n < 0:
        raise ValueError("n must be >= 0")
    total = 0.0
    for k in range(n // 2 + 1):
        total += a ** (n - 2 * k) * b**k / (
            math.factorial(k) * math.factorial(n - 2 * k) * 2**k
        )
    return total


def power_rule_stop_index(coeff_norms: np.ndarray, eps: float) -> int | None:
    """First index n >= 1 with ||psi_n||**(1/n) <= eps, or None."""
    for n in range(1, len(coeff_norms)):
        if coeff_norms[n] ** (1.0 / n) <= eps:
            return n
    return None
