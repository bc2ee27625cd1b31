"""Segmented Taylor-coefficient propagation: the one recurrence kernel.

Every evolution here reads d/ds x = f (A_0 + s B) x with a scalar f and
constant maps A_0, B: the Schroedinger equation in the half space (f = -iT,
A_0 = H_i, B = H_f - H_i), the master equation (the same pair as
commutators, plus i*D for the s-independent dissipator D) and the two-level
benchmark.  Around s0, with A = A_0 + s0*B, the Taylor coefficients obey

    psi_n = (f/n) (A psi_{n-1} + B psi_{n-2})   (n >= 1, psi_{-1} = 0).

The schedule is linear in s, so a generator is one fixed pair, built once
per run as a closure ``apply(v, a_out, b_out)`` that writes A_0 v and B v
into two buffers the kernel owns; only s0 moves from segment to segment,
and the kernel applies the shift itself.  A term allocates nothing: the
kernel rotates four state buffers through the recurrence.  A pair may hand
its products over in row tiles, and the kernel then finishes each tile
while it is still in cache (see :func:`taylor_segment`).
:func:`taylor_segment` is the only loop that runs this recurrence and
:func:`run_segments` the only loop over segments.  A 2-D state is a block
of independent problems, one per column, each with its own stop test
(:func:`propagate_block` anneals many Ising instances this way).  The
partial sums grow like exp(T*||H||) and drown the result in roundoff for
large T, so [0, 1] is split into segments, each summed at its local step
length.  A segment stops at the first n >= 2 whose contribution
||psi_n * step**n|| drops below ``tol``, which directly bounds the
truncation increment.

One rule judges every evolution (:func:`run_segments`): a run is converged
when every segment stopped and its conserved weight (the squared norm, or
the trace of a density) stayed within ``MAX_DRIFT`` of 1 at every segment
boundary; :func:`settle` adds the check that the success probability lies
in [0, 1].
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Iterable

import numpy as np

from .spin_system import (
    GroundSpace,
    IsingDiagonal,
    TransverseField,
    _front,
    apply_initial,
    ground_space,
    tile_rows,
    tile_work,
    transverse_field_half,
    uniform_initial_state,
)

DEFAULT_TOL = 1e-12
DEFAULT_MAX_TERMS = 500
# a run whose weight strays further from 1 at a segment boundary is not converged
MAX_DRIFT = 1e-6

# apply(v, a_out, b_out) writes A_0 v into a_out and B v into b_out: the
# generator pair of a run, unshifted.  It returns None, or an iterator of the
# row slices as they are finished; see taylor_segment
Apply = Callable[[np.ndarray, np.ndarray, np.ndarray], Iterable[slice] | None]


@dataclass(frozen=True)
class AnnealParams:
    """Total anneal time and register size (hbar = 1 units)."""

    n_qubits: int
    t_anneal: float

    def __post_init__(self):
        if not 0 < self.t_anneal < math.inf:  # NaN too
            raise ValueError(f"anneal time must be positive and finite, got {self.t_anneal}")


@dataclass(frozen=True)
class SegmentSchedule:
    """Segmentation of the s-interval and per-segment stopping parameters.

    ``segments=None`` resolves to ceil(T), one segment per unit of anneal
    time.  That count ignores ||H|| <= N + max|E|, which grows with N (a
    median of 23 at N = 8 and 74 at N = 18 over 8 random instances).  The
    drift gate of :func:`run_segments` flags the worst losses (T = 10: seed
    2 at N = 12, seed 1 at N = 14), but it is not sufficient: it passes
    ``instance_seed(1, 0)`` at N = 12, off by 3.2e-7.  Large registers need
    an explicit count until the default follows T*||H||.
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


def _columns(x: np.ndarray) -> np.ndarray:
    """The problems of a state as columns: a (dim, 1) view of a vector."""
    return x.reshape(x.shape[0], -1)


class _Problems:
    """Per-problem bookkeeping of :func:`taylor_segment`.

    A 1-D state is one problem and a (dim, B) block is B, one per column;
    both are indexed as the columns of :func:`_columns`.  Each term gives a
    block estimate ``scale*sqrt(sq_j)`` of every problem's contribution,
    from its sum of squares :meth:`squares`, and :meth:`norm` takes the
    least over the live problems, so a term in which none can stop costs no
    more.  Otherwise :meth:`freeze` decides each live problem at once: at
    most ``tol/NEAR`` it stops, above ``tol*NEAR`` it runs on, and only in
    the band between, or with a non-finite estimate, the exact test, the
    :meth:`squares` of its contiguous column, decides.  The estimate and
    the exact test sum the same ``2*dim`` squares in different orders, so
    they differ by at most about ``2*dim*eps`` relative, far inside the band
    of 2e-6: every decision is that of a one-column run.  A problem that
    stops or overflows (its sum is then NaN) retires at once: its sum is
    copied to the returned block, and the kernel drops its column.
    """

    # the band of estimates around tol in which the exact test decides
    NEAR = 1.0 + 1e-6

    def __init__(self, acc: np.ndarray):
        self.vector = acc.ndim == 1
        width = _columns(acc).shape[1]
        self.ids = np.arange(width)  # each live column's problem
        self.terms = np.zeros(width, dtype=np.int64)
        self.ok = np.zeros(width, dtype=bool)
        self.out = None  # the returned block, made when some problems retire before the rest

    @staticmethod
    def squares(v: np.ndarray):
        """Each problem's sum of squares over the rows ``v``: a float for a
        vector, one per column for a block.

        The sum is an ``einsum`` over the real view of the entries (a
        complex128 array is read as twice as many float64 values), which
        numpy evaluates in its own loop.  ``np.linalg.norm`` and ``np.vdot``
        call a threaded BLAS dot instead, whose helper thread keeps spinning
        beside the main thread after the call and doubles the CPU time of a
        serial run.  Overflow gives ``inf``, as it does there.
        """
        flat = v.view(v.real.dtype)  # a complex column is two adjacent float columns
        if v.ndim == 1:  # as a (dim, 1) block this costs 6x at N = 18
            return np.einsum("i,i->", flat, flat)
        sq = np.einsum("ij,ij->j", flat, flat)
        return sq[0::2] + sq[1::2] if v.dtype.kind == "c" else sq

    def norm(self, sq) -> float:
        """Least norm among the live problems from their sums of squares;
        NaN if any is not finite."""
        self.sq = sq
        if self.vector:
            return math.sqrt(sq)
        if not sq.max() < math.inf:
            return math.nan
        return math.sqrt(sq.min())

    def freeze(self, n, scale, tol, acc, new) -> np.ndarray:
        """Retire the problems that stop or overflow at term n; returns the
        positions of the live columns in ``acc``, none when all are retired."""
        acc, new = _columns(acc), _columns(new)
        sq = np.atleast_1d(self.sq)
        near = scale * np.sqrt(sq)
        stop = near <= tol / self.NEAR
        over = []
        for j in np.flatnonzero(((near <= tol * self.NEAR) ^ stop) | ~np.isfinite(sq)):
            nrm = scale * math.sqrt(self.squares(np.ascontiguousarray(new[:, j])))
            stop[j] = nrm <= tol
            if not math.isfinite(nrm):
                over.append(j)
        stopped = self.ids[stop]
        self.terms[stopped] = n
        self.ok[stopped] = True
        if over:
            acc[:, over] = math.nan  # overflowed: no terms counted
            stop[over] = True
        keep = np.flatnonzero(~stop)
        if keep.size < stop.size:
            if self.out is None and keep.size:
                self.out = np.empty((acc.shape[0], self.terms.size), acc.dtype)
            if self.out is not None:  # else all retire at once: the sums are the result
                self.out[:, self.ids[stop]] = acc[:, stop]
            self.ids = self.ids[keep]
        return keep

    def result(self, acc: np.ndarray, max_terms: int):
        if self.ids.size:  # problems that used up max_terms
            self.terms[self.ids] = max_terms
            if self.out is not None:
                self.out[:, self.ids] = _columns(acc)
        if self.out is not None:
            acc = self.out
        if self.vector:
            return acc, int(self.terms[0]), bool(self.ok[0])
        return acc, self.terms, self.ok


# a problem's squares overflow before its entries do, and it then retires
# as overflowed: the pair sum of its squares need not warn
@np.errstate(over="ignore")
def taylor_segment(
    apply: Apply,
    factor: complex,
    psi_in: np.ndarray,
    step: float,
    tol: float = DEFAULT_TOL,
    max_terms: int = DEFAULT_MAX_TERMS,
    s0: float = 0.0,
    narrow: Callable[[np.ndarray], Apply] | None = None,
) -> tuple[np.ndarray, int | np.ndarray, bool | np.ndarray]:
    """Sum the coefficient recurrence over one segment of length ``step`` from ``s0``.

    ``apply(v, a_out, b_out)`` writes ``A_0 v`` into ``a_out`` and ``B v``
    into ``b_out``, two C-contiguous buffers of the state's shape and dtype
    that are distinct from ``v``; it must not keep them.  It either returns
    None with both products complete, or returns an iterator of row slices
    that are complete in both when yielded; the kernel then runs its own
    updates of the term on each tile as it comes, while the tile is still
    in cache, and resumes the iterator for the next (``v`` is not written
    meanwhile; every other buffer may be, outside the rows handed over so
    far).  Tiles are of equal size.  The kernel shifts the first product
    to ``A v = A_0 v + s0 (B v)``, and keeps ``B psi_{n-1}`` as the (n-2)
    product of the next term.  Its buffers are allocated once per call:
    four state buffers rotate through the terms (the last term, the kept
    (n-2) product and the two outputs), plus the sum, one tile of scratch
    for the shift and the scaled term and, once some columns of a block
    stop before the rest, the returned block; the pair owns any scratch of
    its own.  The loop starts at n = 1 from psi_0 and a zero (n-2)
    product, so psi_1 is the recurrence's first term.  The stop test is
    taken from n = 2 as described at :class:`_Problems`, on norms summed
    over the tiles.

    A 1-D state is one problem (flatten a density matrix first), and a
    C-contiguous 2-D state of shape (dim, B) is B independent problems, one
    per column; ``apply`` must then act on each column alone.  Returns
    ``(state, terms, converged)``: for a vector an int and a bool, for a
    block length-B arrays, every column with the stop test, term count and
    flag of its own one-column run.  ``terms`` is the index of the last
    computed coefficient, and ``converged`` is False when ``max_terms`` was
    exhausted with the last contribution still above ``tol``.  A problem
    whose coefficient turns non-finite (the segment is too long) comes back
    NaN with 0 terms and not converged, and any others run on; nothing is
    raised.

    A block needs ``narrow(cols)``, which returns the pair restricted to the
    block columns ``cols`` (ascending indices into ``psi_in``'s columns).
    At every term in which some columns stop or overflow, the kernel
    gathers the live ones to the front of its own buffers (the sum and the
    two kept products each into a buffer that is free at that point, so
    nothing is allocated) and runs on with the narrowed pair, so a stopped
    column costs nothing more.  Each column's state is that of its
    one-column run bit for bit.
    """
    if max_terms < 2:
        raise ValueError("max_terms must be >= 2")
    if psi_in.ndim == 2 and narrow is None:
        raise ValueError("a block of problems needs narrow")
    term, ramp_prev, new, ramp = np.empty((4,) + psi_in.shape, psi_in.dtype)
    np.copyto(term, psi_in)
    ramp_prev.fill(0)
    acc = psi_in.copy()
    problems = _Problems(acc)
    trigger = tol * problems.NEAR
    scratch = None  # one tile, reused while it is still in cache
    squares = problems.squares
    for n in range(1, max_terms + 1):
        tiles = apply(term, new, ramp)
        bufs = (new, ramp, ramp_prev, acc)
        c, scale, sq = factor / n, step**n, None
        for nw, r, rp, ac in [bufs] if tiles is None else ([b[t] for b in bufs] for t in tiles):
            if scratch is None:
                scratch = np.empty_like(nw)
            np.multiply(r, s0, out=scratch)
            nw += scratch  # A psi_{n-1}
            nw += rp
            nw *= c  # psi_n
            np.multiply(nw, scale, out=scratch)
            ac += scratch
            part = squares(nw)
            sq = part if sq is None else sq + part
        nrm = scale * problems.norm(sq)
        if n > 1 and not trigger < nrm < math.inf:  # a problem may stop or overflow here
            keep = problems.freeze(n, scale, tol, acc, new)
            if not keep.size:
                break
            if keep.size < _columns(acc).shape[1]:
                shape = (acc.shape[0], keep.size)
                # a whole-state scratch keeps its memory; a tile is made anew
                scratch = _front(scratch, shape) if scratch.shape == acc.shape else None
                # each kept block moves into a buffer that is free by then:
                # psi_n and B psi_{n-1} into the two the rotation would hand
                # the next term as outputs, the sum into psi_n's; the next
                # outputs are the old buffers of B psi_{n-1} and of the sum.
                # (mode "raise" would gather into a temporary first)
                gathered = [np.take(src, keep, axis=1, out=_front(dst, shape), mode="clip")
                            for src, dst in ((new, term), (ramp, ramp_prev), (acc, new))]
                new, ramp = _front(ramp, shape), _front(acc, shape)
                term, ramp_prev, acc = gathered
                apply = narrow(problems.ids)
                continue
        term, ramp_prev, new, ramp = new, ramp, term, ramp_prev
    return problems.result(acc, max_terms)


def run_segments(
    apply: Apply,
    factor: complex,
    state: np.ndarray,
    t_anneal: float,
    schedule: SegmentSchedule | None,
    weight: Callable[[np.ndarray], float | np.ndarray],
    narrow: Callable[[np.ndarray], Apply] | None = None,
) -> tuple[np.ndarray, list, float | np.ndarray, bool | np.ndarray]:
    """Run :func:`taylor_segment` over the K segments of [0, 1] and judge the run.

    Every segment runs the one pair ``apply``; segment k expands around
    s0 = k/K.  ``weight(state)`` is the quantity the evolution conserves at
    1, a float or one per column of a block, and is taken at every boundary.
    Returns ``(state, terms, drift, converged)``: the state at s = 1, the
    term counts of the segments, each problem's largest |weight - 1| (a NaN
    stays NaN) and the one verdict, that every segment stopped and the drift
    is at most ``MAX_DRIFT``.  For a 2-D block all but the state are per
    column (see :func:`taylor_segment`).  A problem that overflows stays NaN,
    counting 0 terms in every later segment.  A segment in which every
    problem has overflowed ends the run, and its terms are not listed.
    ``narrow`` is handed to every segment, which starts at the full width.
    """
    schedule = schedule or SegmentSchedule()
    n_seg = schedule.resolve(t_anneal)
    step = 1.0 / n_seg
    terms: list = []
    stopped, drift = True, 0.0
    for k in range(n_seg):
        state, n_terms, ok = taylor_segment(
            apply, factor, state, step, schedule.tol, schedule.max_terms, k * step, narrow=narrow
        )
        stopped = stopped & ok
        drift = np.maximum(drift, abs(weight(state) - 1.0))  # NaN wins
        if not np.count_nonzero(n_terms):  # every problem overflowed
            break
        terms.append(n_terms)
    return state, terms, drift, stopped & (drift <= MAX_DRIFT)


def settle(raw_p: float, ok: bool) -> tuple[float, bool]:
    """The reported success probability and verdict of a run judged ``ok``.

    Truncation noise within 1e-9 of the edges of [0, 1] is absorbed.  Any
    other value outside, a larger excursion or NaN, means the evolution blew
    up: it is returned raw for diagnosis, and the run is not converged.
    """
    if -1e-9 <= raw_p <= 1.0 + 1e-9:
        return min(max(raw_p, 0.0), 1.0), ok
    return raw_p, False


def _ising_apply(tf: TransverseField, diag_f: np.ndarray, work: np.ndarray | None) -> Apply:
    """The annealing pair A_0 = H_i, B = H_f - H_i (factor -iT).

    ``apply(v, a_out, b_out)`` writes one driver product into ``a_out``
    (:func:`apply_initial`, through this module's global so that it can be
    traced, once per term; a float64 low-bit matrix of about 0.6 MB at any
    N, applied to the float64 view of the state, plus in-place updates) and
    one diagonal product into ``b_out``.  Nothing is allocated or upcast:
    ``propagate`` passes the diagonal as complex128, like the states.  A
    (dim, B) diagonal block and state run B instances, column by column.

    Beyond N = 13 the low-bit product runs in ``work``, the
    :func:`tile_work` of a state at least as wide as ``diag_f`` (None for
    N <= 13), so a narrowed pair shares its full-width pair's and allocates
    none.  A state of at most :data:`~annealsim.spin_system.TILE_ENTRIES`
    entries is one tile: the pair returns None.  A larger one is tiled (see
    :func:`tile_rows`): the call returns an iterator whose first step does
    the low-bit product, and whose steps each finish both products on one
    row tile.
    """
    def apply(v, a_out, b_out):
        apply_initial(tf, v, a_out, work)
        np.multiply(diag_f, v, out=b_out)
        b_out -= a_out  # (H_f - H_i) v

    rows = tile_rows(diag_f.shape)
    if rows is None:
        return apply

    def tiled(v, a_out, b_out):
        for t in apply_initial(tf, v, a_out, work, rows):
            b = np.multiply(diag_f[t], v[t], out=b_out[t])
            b -= a_out[t]  # (H_f - H_i) v on the tile
            yield t

    return tiled


def propagate(
    params: AnnealParams,
    hf: IsingDiagonal,
    schedule: SegmentSchedule | None = None,
) -> PropagationResult:
    """Evolve the uniform superposition from s=0 to s=1 in the half space.

    The final success probability is the lifted overlap with the Ising
    ground space, and ``norm_drift`` the largest |2<psi|psi> - 1| at a
    segment boundary.  The run is judged by :func:`run_segments` and
    :func:`settle`; ensemble statistics exclude a non-converged run.
    """
    return propagate_block(params, [hf], schedule)[0]


def propagate_block(
    params: AnnealParams,
    instances: list[IsingDiagonal],
    schedule: SegmentSchedule | None = None,
) -> list[PropagationResult]:
    """:func:`propagate` for several instances at once, as the columns of one state.

    The instances share the driver, and their half diagonals form one
    complex (2**(N-1), B) block, so one driver product per term serves all
    of them.  Each column stops, overflows and is counted on its own, and
    its result equals that of its instance run alone bit for bit.  At every
    term in which columns stop, the kernel narrows the pair to the rest (the
    diagonal's live columns, in the low-bit work of the full width), so a
    block pays for each column's own terms only.  A lone instance runs as a
    vector: as a (dim, 1) block it costs up to 1.5x.
    """
    if any(hf.n_qubits != params.n_qubits for hf in instances):
        raise ValueError("params and Ising instance disagree on qubit count")
    width = len(instances)
    # the diagonal has the state's dtype: no cast per term
    psi0 = uniform_initial_state(params.n_qubits)
    if width == 1:
        diag_f = instances[0].half_diag.astype(np.complex128)
    else:
        diag_f = np.stack([hf.half_diag for hf in instances], axis=1).astype(np.complex128)
        psi0 = np.repeat(psi0[:, None], width, axis=1)
    tf = transverse_field_half(params.n_qubits)
    work = tile_work(tf, diag_f.shape)  # the low-bit product's input and output, at every width
    psi, terms, drift, converged = run_segments(
        _ising_apply(tf, diag_f, work), -1j * params.t_anneal, psi0, params.t_anneal, schedule,
        # the lifted squared norm over the column view: a vector sums its
        # squares in the order of a block column, so the drifts agree
        lambda v: 2.0 * _Problems.squares(_columns(v)),
        lambda cols: _ising_apply(tf, diag_f[:, cols], work),
    )
    terms = np.array(terms, dtype=np.int64).reshape(-1, width)
    results = []
    for j, hf in enumerate(instances):
        col = np.ascontiguousarray(_columns(psi)[:, j])  # reads as a one-column run
        p, ok = settle(success_probability(col, ground_space(hf)), bool(converged[j]))
        # a 0 marks a segment at or after the column's overflow, which a
        # one-column run does not list; a finished segment has at least 2 terms
        results.append(
            PropagationResult(col, p, float(drift[j]), [int(t) for t in terms[:, j] if t], ok)
        )
    return results


def success_probability(psi: np.ndarray, gs: GroundSpace) -> float:
    """Lifted squared overlap of a half vector with the ground space.

    The factor 2 accounts for the mirrored half of the palindromic full
    vector.  The raw value is returned; :func:`settle` clamps it.
    """
    return 2.0 * float(np.sum(np.abs(psi[gs.indices]) ** 2))
