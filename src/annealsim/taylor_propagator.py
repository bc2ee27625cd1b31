"""Segmented Taylor-coefficient propagation: the one recurrence kernel.

Every evolution here reads d/ds x = f (A_0 + s B) x with a scalar f and
constant maps A_0, B: the Schroedinger equation in the half space (f = -iT,
A_0 = H_i, B = H_f - H_i), the master equation (the same pair as
commutators, plus i*D for the s-independent dissipator D) and the two-level
benchmark.  Around s0, with A = A_0 + s0*B, the Taylor coefficients obey

    psi_1 = f A psi_0,     psi_n = (f/n) (A psi_{n-1} + B psi_{n-2})   (n >= 2).

:func:`taylor_segment` is the only loop that runs this recurrence, for a
closure ``apply(v) -> (A v, B v)``; :func:`run_segments` is the only loop
over segments.  The partial sums grow like exp(T*||H||) and drown the
result in roundoff for large T, so [0, 1] is split into segments, each
summed at its local step length.

Two stopping rules are known.  The production rule, used here, stops at the
first n >= 2 whose contribution ||psi_n * step**n|| drops below ``tol``; it
directly bounds the truncation increment.  The alternative power rule
(||psi_n||**(1/n) <= eps) is available as a diagnostic via
:func:`segment_coefficient_norms` and :func:`power_rule_stop_index`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial
from typing import Callable, Iterator

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

# apply(v) -> (A v, B v): the generator pair of one segment, see taylor_segment
Apply = Callable[[np.ndarray], tuple[np.ndarray, np.ndarray]]


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

    ``segments=None`` resolves to ceil(T), one segment per unit of anneal
    time.  That count ignores ||H||, which grows as N**2/2: from N = 14 on
    it loses accuracy while runs are still flagged converged (|dP| 5e-3 at
    N = 16, T = 10), so large registers need an explicit count.
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
    apply: Apply,
    factor: complex,
    psi_in: np.ndarray,
    step: float,
    tol: float = DEFAULT_TOL,
    max_terms: int = DEFAULT_MAX_TERMS,
) -> tuple[np.ndarray, int, bool]:
    """Sum the coefficient recurrence over one segment of length ``step``.

    ``apply(v)`` returns ``(A v, B v)``, A shifted to the segment start, as
    two new arrays of the state's dtype that the kernel owns and overwrites;
    ``B psi_{n-1}`` is kept as the (n-2) product of the next term.  Works on
    any ndarray state (vectors or density matrices, flat 2-norm).

    Returns ``(state, terms, converged)`` where ``terms`` is the index of the
    last computed coefficient.  ``converged`` is False when ``max_terms`` was
    exhausted with the last contribution still above ``tol``.

    Raises :class:`TaylorOverflowError` if a coefficient turns non-finite,
    which signals that the segment is too long.
    """
    if max_terms < 2:
        raise ValueError("max_terms must be >= 2")
    term, ramp_prev = apply(psi_in)
    term *= factor
    acc = psi_in + step * term
    for n in range(2, max_terms + 1):
        new, ramp = apply(term)
        new += ramp_prev
        new *= factor / n  # psi_n
        scale = step**n
        np.multiply(new, scale, out=ramp_prev)  # the retired (n-2) product is scratch
        acc += ramp_prev
        nrm = scale * _l2(new)
        if not math.isfinite(nrm):
            raise TaylorOverflowError(
                f"coefficient {n} overflowed; split the interval into more segments"
            )
        if nrm <= tol:
            return acc, n, True
        term, ramp_prev = new, ramp
    return acc, max_terms, False


def run_segments(
    make_apply: Callable[[float], Apply],
    factor: complex,
    state: np.ndarray,
    t_anneal: float,
    schedule: SegmentSchedule | None = None,
) -> Iterator[tuple[np.ndarray, list[int], bool]]:
    """Run :func:`taylor_segment` over the K segments of [0, 1].

    Segment k expands around s0 = k/K with the pair ``make_apply(s0)``.
    Yields at each boundary the state, the term counts so far and whether
    all segments so far converged; the last yield is the result at s = 1.
    A segment that overflows ends the run with a NaN state of the same
    shape, flagged non-converged; its terms are not counted.
    """
    if schedule is None:
        schedule = SegmentSchedule()
    n_seg = schedule.resolve(t_anneal)
    step = 1.0 / n_seg
    terms: list[int] = []
    converged = True
    for k in range(n_seg):
        try:
            state, n_terms, ok = taylor_segment(
                make_apply(k * step), factor, state, step, schedule.tol, schedule.max_terms
            )
        except TaylorOverflowError:
            yield np.full_like(state, np.nan), terms, False
            return
        terms.append(n_terms)
        converged = converged and ok
        yield state, terms, converged


def _ising_apply(tf: TransverseField, diag_f: np.ndarray, s0: float) -> Apply:
    """The annealing pair A = H_i + s0 (H_f - H_i), B = H_f - H_i (factor -iT).

    One driver product (:func:`apply_initial`, through this module's global
    so that it can be traced) and one diagonal product.  Nothing is upcast:
    the driver matrix is stored complex and ``propagate`` passes the
    diagonal as complex128, like the states.
    """
    shifted = np.empty_like(diag_f)

    def apply(v):
        drv = apply_initial(tf, v)
        ramp = diag_f * v
        ramp -= drv  # (H_f - H_i) v
        np.multiply(ramp, s0, out=shifted)
        drv += shifted
        return drv, ramp

    return apply


def propagate(
    params: AnnealParams,
    hf: IsingDiagonal,
    schedule: SegmentSchedule | None = None,
) -> PropagationResult:
    """Evolve the uniform superposition from s=0 to s=1 in the half space.

    The final success probability is the lifted overlap with the Ising
    ground space.

    A ground weight outside [0, 1] (a blown-up series) flags the run
    non-converged.  A non-converged run reports the raw, unclamped weight of
    whatever state the series produced, for diagnosis only; ensemble
    statistics exclude it.
    """
    if params.n_qubits != hf.n_qubits:
        raise ValueError("params and Ising instance disagree on qubit count")
    tf = transverse_field_half(params.n_qubits)
    diag_f = hf.half_diag.astype(np.complex128)  # same dtype as the state: no cast per term
    psi0 = uniform_initial_state(params.n_qubits)
    for psi, terms, converged in run_segments(
        partial(_ising_apply, tf, diag_f), -1j * params.t_anneal, psi0, params.t_anneal, schedule
    ):
        pass  # only the state at s = 1 is needed
    gs = ground_space(hf)
    p = success_probability(psi, gs)
    converged = converged and 0.0 <= p <= 1.0
    norm_drift = abs(2.0 * float(np.vdot(psi, psi).real) - 1.0)
    return PropagationResult(psi, p, norm_drift, terms, converged)


def clamp_probability(raw: float) -> float:
    """Absorb truncation noise within 1e-9 of the edges of [0, 1].

    Any other value, a larger excursion or NaN, means the evolution blew
    up; it is returned raw for diagnosis, and the propagators flag such a
    run non-converged.
    """
    if -1e-9 <= raw <= 1.0 + 1e-9:
        return min(max(raw, 0.0), 1.0)
    return raw


def success_probability(psi: np.ndarray, gs: GroundSpace) -> float:
    """Lifted squared overlap of a half vector with the ground space.

    The factor 2 accounts for the mirrored half of the palindromic full
    vector.  The value passes through :func:`clamp_probability`.
    """
    return clamp_probability(2.0 * float(np.sum(np.abs(psi[gs.indices]) ** 2)))


def coefficient_bound_recurrence(a: float, b: float, n_max: int) -> BoundSequence:
    """Majorant sequence p_n/n! from the scalar three-term recurrence.

    p_{n+1} = a p_n + n b p_{n-1} with p_0 = 1, p_1 = a.  The values
    q_n = p_n/n! obey q_{n+1} = (a q_n + b q_{n-1}) / (n+1), the kernel's
    recurrence for the scalar pair (a, b), so no factorial overflows.  They
    are exact from about 1e-154 to 1e154, where their square is a normal
    float; above that the kernel raises TaylorOverflowError.
    """
    if a <= 0 or b < 0:
        raise ValueError("need a > 0 and b >= 0")
    values = segment_coefficient_norms(lambda v: a * v, lambda v: b * v, np.ones(1), n_max)
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

    Runs :func:`taylor_segment` (factor 1, unit step) with no early stop,
    recording the norm of every coefficient ``apply`` is given; feed the
    result to :func:`power_rule_stop_index` to evaluate the alternative
    eps-power stopping rule.
    """
    norms = []

    def apply(v):
        norms.append(_l2(v))
        return apply_const(v), apply_ramp(v)

    taylor_segment(apply, 1.0, psi_in, 1.0, -math.inf, max(n_terms + 1, 2))
    return np.array(norms[: n_terms + 1])


def power_rule_stop_index(coeff_norms: np.ndarray, eps: float) -> int | None:
    """First index n >= 1 with ||psi_n||**(1/n) <= eps, or None."""
    for n in range(1, len(coeff_norms)):
        if coeff_norms[n] ** (1.0 / n) <= eps:
            return n
    return None
