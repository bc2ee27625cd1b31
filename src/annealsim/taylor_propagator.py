"""Recursive Taylor-coefficient propagation of the annealing Schroedinger equation.

The reduced-time equation  d/ds psi = (C + s R) psi  with constant operators
C (the generator at the expansion point) and R (the ramp direction) admits a
power-series solution whose coefficients obey a three-term recurrence:

    psi_1 = C psi_0,     psi_n = (C psi_{n-1} + R psi_{n-2}) / n   (n >= 2).

The series converges for every s, but for large anneal times the intermediate
partial sums grow like exp(T*||H||) and drown the result in roundoff.  The
cure is to split [0, 1] into segments: on the segment starting at s0 the same
recurrence applies with C replaced by C + s0*R and the series summed at the
local step length.

Two stopping rules are known.  The production rule, used here, stops at the
first n >= 2 whose contribution ||psi_n * step**n|| drops below ``tol``; it
directly bounds the truncation increment.  The alternative power rule
(||psi_n||**(1/n) <= eps) is available as a diagnostic via
:func:`segment_coefficient_norms` and :func:`power_rule_stop_index`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import TaylorOverflowError
from .spin_system import (
    GroundSpace,
    IsingDiagonal,
    TransverseField,
    apply_initial,
    ground_space,
    transverse_field_half,
    uniform_initial_state,
)

DEFAULT_TOL = 1e-12
DEFAULT_MAX_TERMS = 500


@dataclass(frozen=True)
class AnnealParams:
    """Total anneal time and register size (hbar = 1 units)."""

    n_qubits: int
    t_anneal: float

    def __post_init__(self):
        if self.t_anneal <= 0:
            raise ValueError(f"anneal time must be positive, got {self.t_anneal}")


@dataclass(frozen=True)
class SegmentSchedule:
    """Segmentation of the s-interval and per-segment stopping parameters.

    ``segments=None`` resolves to ceil(T), the empirically best choice of
    roughly one segment per unit of anneal time.
    """

    segments: int | None = None
    tol: float = DEFAULT_TOL
    max_terms: int = DEFAULT_MAX_TERMS

    def __post_init__(self):
        if self.segments is not None and self.segments < 1:
            raise ValueError("segments must be >= 1")
        if not 0 < self.tol < 1:
            raise ValueError("tol must lie in (0, 1)")
        if self.max_terms < 2:
            raise ValueError("max_terms must be >= 2")

    def resolve(self, t_anneal: float) -> int:
        if self.segments is not None:
            return self.segments
        return max(1, math.ceil(t_anneal))


@dataclass
class PropagationResult:
    psi_final: np.ndarray
    success_p: float
    norm_drift: float
    terms_per_segment: list[int]
    converged: bool


@dataclass(frozen=True)
class BoundSequence:
    """Majorant values p_n/n! bounding the Taylor coefficient norms."""

    a: float
    b: float
    values: np.ndarray


def _l2(x: np.ndarray) -> float:
    """Flat 2-norm of a real or complex array of any shape, without BLAS.

    The sum of squares is an ``einsum`` over the real view of the entries
    (a complex128 array is read as twice as many float64 values), which
    numpy evaluates in its own loop.  ``np.linalg.norm`` and ``np.vdot``
    call a threaded BLAS dot instead, whose helper thread keeps spinning
    beside the main thread after the call and doubles the CPU time of a
    serial run.  Overflow gives ``inf``, as it does there.
    """
    flat = np.ravel(x)
    flat = flat.view(flat.real.dtype)
    return math.sqrt(np.einsum("i,i->", flat, flat))


def taylor_segment(
    apply_const: Callable[[np.ndarray], np.ndarray],
    apply_ramp: Callable[[np.ndarray], np.ndarray],
    psi_in: np.ndarray,
    step: float,
    tol: float = DEFAULT_TOL,
    max_terms: int = DEFAULT_MAX_TERMS,
) -> tuple[np.ndarray, int, bool]:
    """Sum the coefficient recurrence over one segment of length ``step``.

    ``apply_const`` must already include the segment shift (C + s0*R for a
    segment starting at s0); ``apply_ramp`` applies the bare ramp operator.
    Works on any ndarray state (vectors or density matrices, flat 2-norm).

    Returns ``(state, terms, converged)`` where ``terms`` is the index of the
    last computed coefficient.  ``converged`` is False when ``max_terms`` was
    exhausted with the last contribution still above ``tol``.

    Raises :class:`TaylorOverflowError` if a coefficient turns non-finite,
    which signals that the segment is too long.
    """
    if max_terms < 2:
        raise ValueError("max_terms must be >= 2")
    term_prev = apply_const(psi_in)
    term_prev2 = psi_in
    acc = psi_in + step * term_prev
    n = 1
    converged = False
    while n < max_terms:
        n += 1
        term = (apply_const(term_prev) + apply_ramp(term_prev2)) / n
        scale = step**n
        acc = acc + term * scale
        nrm = scale * _l2(term)
        if not math.isfinite(nrm):
            raise TaylorOverflowError(
                f"coefficient {n} overflowed; split the interval into more segments"
            )
        term_prev2, term_prev = term_prev, term
        if nrm <= tol:
            converged = True
            break
    return acc, n, converged


def _ising_segment(
    tf: TransverseField,
    diag_f: np.ndarray,
    t_anneal: float,
    s0: float,
    psi_in: np.ndarray,
    step: float,
    tol: float,
    max_terms: int,
) -> tuple[np.ndarray, int, bool]:
    """Segment recurrence specialised to the annealing Hamiltonian pair.

    Identical algebra to :func:`taylor_segment` with
    C = -iT[(1-s0) H_i + s0 H_f] and R = -iT(H_f - H_i), written as

        psi_n = (-iT/n) [H_i psi_{n-1} + s0 (H_f - H_i) psi_{n-1}
                         + (H_f - H_i) psi_{n-2}],

    so that the ramp product (H_f - H_i) psi_{n-1} made for one term is
    kept as the (n-2) product of the next.  A term costs one driver product
    (:func:`apply_initial`, the only allocation), one diagonal product and
    in-place vector updates.  Nothing is upcast: the driver matrix is
    stored complex and ``propagate`` passes the diagonal as complex128, like
    the states.  Nothing calls BLAS: the norm is :func:`_l2`.

    Four vectors besides the accumulator live across terms: the last
    coefficient, the cached ramp product, one scratch vector and the fresh
    driver product.  The new coefficient is built in the buffer of the
    retired ramp product, the new ramp product in the scratch vector, and
    the retired coefficient becomes the next scratch vector.  The driver
    product, once folded in, holds ``step**n * psi_n`` for the accumulator.
    The stop test is ``step**n * ||psi_n||``.
    """
    c = -1j * t_anneal
    drv = apply_initial(tf, psi_in)
    ramp = diag_f * psi_in - drv
    term_prev = c * (drv + s0 * ramp)
    acc = psi_in + step * term_prev
    scratch = np.empty_like(acc)
    n = 1
    converged = False
    while n < max_terms:
        n += 1
        drv = apply_initial(tf, term_prev)
        np.multiply(diag_f, term_prev, out=scratch)
        scratch -= drv  # (H_f - H_i) psi_{n-1}, the next ramp product
        ramp += drv
        np.multiply(scratch, s0, out=drv)
        ramp += drv
        ramp *= c / n  # psi_n
        term_prev, ramp, scratch = ramp, scratch, term_prev
        scale = step**n
        np.multiply(term_prev, scale, out=drv)
        acc += drv
        nrm = scale * _l2(term_prev)
        if not math.isfinite(nrm):
            raise TaylorOverflowError(
                f"coefficient {n} overflowed; split the interval into more segments"
            )
        if nrm <= tol:
            converged = True
            break
    return acc, n, converged


def propagate(
    params: AnnealParams,
    hf: IsingDiagonal,
    schedule: SegmentSchedule | None = None,
) -> PropagationResult:
    """Evolve the uniform superposition from s=0 to s=1 in the half space.

    The interval is split into K equal segments; segment k (0-based) expands
    around s0 = k/K with local step 1/K.  The final success probability is
    the lifted overlap with the Ising ground space.

    For a non-converged run ``success_p`` holds the raw (unclamped) ground
    weight of whatever state the truncated series produced; it is reported
    for diagnosis only and is excluded from ensemble statistics upstream.
    """
    if schedule is None:
        schedule = SegmentSchedule()
    if params.n_qubits != hf.n_qubits:
        raise ValueError("params and Ising instance disagree on qubit count")
    n_seg = schedule.resolve(params.t_anneal)
    tf = transverse_field_half(params.n_qubits)
    diag_f = hf.half_diag.astype(np.complex128)  # same dtype as the state: no cast per term
    psi = uniform_initial_state(params.n_qubits)
    step = 1.0 / n_seg
    terms: list[int] = []
    converged = True
    for k in range(n_seg):
        s0 = k * step
        psi, n_terms, ok = _ising_segment(
            tf, diag_f, params.t_anneal, s0, psi, step, schedule.tol, schedule.max_terms
        )
        terms.append(n_terms)
        converged = converged and ok
    gs = ground_space(hf)
    p = success_probability(psi, gs, strict=converged)
    norm_drift = abs(2.0 * float(np.vdot(psi, psi).real) - 1.0)
    return PropagationResult(psi, p, norm_drift, terms, converged)


def success_probability(psi: np.ndarray, gs: GroundSpace, strict: bool = True) -> float:
    """Lifted squared overlap of a half vector with the ground space.

    The factor 2 accounts for the mirrored half of the palindromic full
    vector.  Values marginally above 1 (within 1e-9, truncation noise) are
    clamped; larger excesses mean the norm blew up and raise ValueError
    unless ``strict=False``.
    """
    raw = 2.0 * float(np.sum(np.abs(psi[gs.indices]) ** 2))
    if raw <= 1.0:
        return raw
    if raw <= 1.0 + 1e-9:
        return 1.0
    if strict:
        raise ValueError(f"success probability {raw} exceeds 1; state norm blew up")
    return raw


def coefficient_bound_recurrence(a: float, b: float, n_max: int) -> BoundSequence:
    """Majorant sequence p_n/n! from the scalar three-term recurrence.

    p_{n+1} = a p_n + n b p_{n-1} with p_0 = 1, p_1 = a, evaluated with a
    running division by n so no factorial overflows:
    q_{n+1} = (a q_n + b q_{n-1}) / (n+1) for q_n = p_n/n!.
    """
    if a <= 0 or b < 0:
        raise ValueError("need a > 0 and b >= 0")
    values = np.empty(n_max + 1)
    values[0] = 1.0
    if n_max >= 1:
        values[1] = a
    for n in range(1, n_max):
        values[n + 1] = (a * values[n] + b * values[n - 1]) / (n + 1)
    return BoundSequence(a, b, values)


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


def segment_coefficient_norms(
    apply_const: Callable[[np.ndarray], np.ndarray],
    apply_ramp: Callable[[np.ndarray], np.ndarray],
    psi_in: np.ndarray,
    n_terms: int,
) -> np.ndarray:
    """Diagnostic: norms ||psi_n|| of the first ``n_terms`` coefficients.

    No early stopping; feed the result to :func:`power_rule_stop_index` to
    evaluate the alternative eps-power stopping rule.
    """
    norms = np.empty(n_terms + 1)
    norms[0] = _l2(psi_in)
    term_prev = apply_const(psi_in)
    term_prev2 = psi_in
    if n_terms >= 1:
        norms[1] = _l2(term_prev)
    for n in range(2, n_terms + 1):
        term = (apply_const(term_prev) + apply_ramp(term_prev2)) / n
        norms[n] = _l2(term)
        term_prev2, term_prev = term_prev, term
    return norms


def power_rule_stop_index(coeff_norms: np.ndarray, eps: float) -> int | None:
    """First index n >= 1 with ||psi_n||**(1/n) <= eps, or None."""
    for n in range(1, len(coeff_norms)):
        if coeff_norms[n] ** (1.0 / n) <= eps:
            return n
    return None
