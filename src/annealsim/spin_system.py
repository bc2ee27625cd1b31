"""Hamiltonian constructors and the spin-flip-symmetric state representation.

An N-qubit register is simulated in the half space of dimension 2**(N-1)
that is invariant under the global spin flip.  Conventions used throughout
the package:

* Basis state ``i`` assigns qubit ``q`` the spin ``z_q = +1`` when bit ``q``
  of ``i`` is 0, and ``z_q = -1`` when it is 1.
* The half space consists of the indices ``i < 2**(N-1)`` (top qubit spin
  up); index ``i`` stands for the symmetric pair ``{i, 2**N - 1 - i}``.
* A half vector ``psi`` represents the full palindromic vector whose first
  half is ``psi`` and whose second half is ``psi`` reversed, so the full
  squared norm is twice the half-space squared norm.

The driver Hamiltonian is the transverse field ``-sum_q sigma_x^q``; the
problem Hamiltonian is a complete-graph Ising diagonal
``-sum_{k<l} J_kl z_k z_l`` with couplings drawn uniformly from {-1, +1}.
"""

from __future__ import annotations

import importlib.machinery
import importlib.util
import math
import os
from dataclasses import dataclass, field
from types import ModuleType
from typing import Iterator, NamedTuple

import numpy as np
import scipy

from .errors import CapacityError

# Dimension caps: half-space vectors beyond 2**19 entries (N > 20) leave no
# headroom for the propagator's work vectors on a desk-scale machine; the
# driver matrix no longer grows with N, so the work vectors alone set the cap.
MAX_QUBITS = 20
# The driver matrix covers the low min(N-1, LOW_FLIP_BITS) bits: 2**12 rows
# of 12 entries, about 0.6 MB, whatever N (see apply_initial).
LOW_FLIP_BITS = 12
# A larger state is finished in row tiles of at most this many entries, 512 KB
# of complex128 (see tile_rows), so that a tile stays in a core's L2 (2 MB on
# the x86 host measured) from the driver product's last pass to the Taylor
# kernel's, where a whole 2 MB half vector at N = 18 streams from L3 on every
# pass.  There, 2**14 and 2**16 were slower.
TILE_ENTRIES = 2**15


def _check_qubits(n_qubits: int, limit: int = MAX_QUBITS) -> None:
    if n_qubits < 2:
        raise ValueError(f"need at least 2 qubits, got {n_qubits}")
    if n_qubits > limit:
        raise CapacityError(f"{n_qubits} qubits exceeds the supported limit of {limit}")


class CSR(NamedTuple):
    """A square sparse matrix as the three arrays of compressed sparse rows.

    Row ``i`` holds ``data[indptr[i]:indptr[i + 1]]`` at the columns
    ``indices[indptr[i]:indptr[i + 1]]``; the row (and column) count is
    ``indptr.size - 1``.  :func:`csr_product` is the one product.
    """

    data: np.ndarray
    indices: np.ndarray
    indptr: np.ndarray


@dataclass(frozen=True)
class TransverseField:
    """Single-bit-flip coupling structure on the low m = min(N-1, 12) qubits.

    ``couplings`` is the symmetric float64 matrix with value -1 at
    ``(i, i ^ 2**k)`` for every ``i < 2**m`` and ``k < m``, as the three
    arrays of a :class:`CSR`; it multiplies the float64 view of a complex
    state (see :func:`csr_product`), so no complex copy of it is ever made.
    For N <= 13 it is the whole half-space flip matrix.  Beyond, it acts on
    the low bits of each contiguous run of 2**m half-space entries, and the
    flips of the higher bits and of the top qubit (the reversal of the half
    vector) are applied separately (see :func:`apply_initial`).
    """

    n_qubits: int
    couplings: CSR


@dataclass(frozen=True)
class IsingDiagonal:
    """Half diagonal of a random complete-graph Ising Hamiltonian.

    The full 2**N diagonal is the palindrome ``concat(half_diag,
    half_diag[::-1])``.  Entries are exact integers.  ``couplings[k, l]``
    (k < l) retains the drawn J values for audit and replay.
    """

    n_qubits: int
    half_diag: np.ndarray
    seed: int
    couplings: np.ndarray = field(repr=False)

    def full_diag(self) -> np.ndarray:
        return np.concatenate([self.half_diag, self.half_diag[::-1]])


@dataclass(frozen=True)
class GroundSpace:
    """Half-space indices attaining the minimal Ising energy."""

    indices: np.ndarray
    energy: int
    degeneracy: int


def _flip_matrix(n_bits: int, value: float) -> CSR:
    """The :class:`CSR` with ``value`` at ``(i, i ^ 2**k)`` for i < 2**n_bits, k < n_bits.

    Every row holds n_bits entries, so the three arrays are written directly
    (int32 column indices sorted within each row, float64 values) rather
    than assembled from coordinates, which would hold several index arrays
    of the full entry count at once.
    """
    dim = 1 << n_bits
    idx = np.arange(dim, dtype=np.int32)
    cols = np.sort(idx[:, None] ^ (1 << np.arange(n_bits, dtype=np.int32)), axis=1)
    indptr = np.arange(0, cols.size + 1, n_bits, dtype=np.int32)
    return CSR(np.full(cols.size, value, dtype=np.float64), cols.ravel(), indptr)


def transverse_field_half(n_qubits: int) -> TransverseField:
    """Build the half-space flip structure for ``n_qubits`` qubits.

    The matrix is ``_flip_matrix(m, -1.0)`` for the low m = min(N-1, 12)
    bits: 2**m rows of m entries, all equal to -1, so 0.6 MB at every
    N >= 13 (the full half-space matrix would be 45 MB at N=18).
    """
    _check_qubits(n_qubits)
    return TransverseField(n_qubits, _flip_matrix(min(n_qubits - 1, LOW_FLIP_BITS), -1.0))


def _load_sparsetools(directory: str) -> ModuleType:
    """scipy's compiled CSR routines, loaded from the extension file in ``directory``.

    Importing them as ``scipy.sparse._sparsetools`` runs the ``scipy.sparse``
    package first, whose array-API layer imports much of numpy besides
    (``numpy.f2py``, ``numpy.testing``, ``numpy.ma``): half of this
    package's import time, in every process, for one routine.  Where
    ``directory`` holds no such file (an editable scipy, say), the package
    is imported after all.
    """
    spec = importlib.machinery.PathFinder.find_spec("_sparsetools", [directory])
    if spec is None:
        from scipy.sparse import _sparsetools
        return _sparsetools
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


_sparsetools = _load_sparsetools(os.path.join(os.path.dirname(scipy.__file__), "sparse"))


def csr_product(mat: CSR, x: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Write ``mat @ x`` into ``out`` for a float64 :class:`CSR` and a complex128 ``x``.

    ``x`` and ``out`` are C-contiguous, of the same shape, with the matrix
    acting on their first axis.  The product runs on their float64 views,
    in which every complex entry is two adjacent real columns: this is
    scipy's routine for a CSR matrix times a real block (``csr_matvecs``
    into a zeroed result), called on ``out`` instead of a new array.  For
    finite entries the result is bit for bit that of the same matrix stored
    complex: there a real entry c times x + iy is (cx - 0y) + i(cy + 0x),
    whose zero terms change nothing once the zeroed sum absorbs their sign.
    The matrix is square (see :class:`CSR`): its row count is checked
    against ``x``.
    """
    indptr, indices, data = mat.indptr, mat.indices, mat.data
    n = indptr.shape[0] - 1
    # the routine trusts its sizes: a mismatch would write past ``out``
    if not (
        x.shape[0] == n and x.shape == out.shape
        and x.dtype == out.dtype == np.complex128 and data.dtype == np.float64
        and x.flags.c_contiguous and out.flags.c_contiguous
    ):
        raise ValueError("csr_product needs a float64 matrix and C-contiguous complex128 "
                         "x and out of one shape, with its row count")
    yr = out.view(np.float64)
    yr.fill(0.0)
    _sparsetools.csr_matvecs(n, n, x.size * 2 // n, indptr, indices, data, x.view(np.float64), yr)
    return out


def _front(buf: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """A C-contiguous array of ``shape`` on the first entries of ``buf``'s memory."""
    return buf.reshape(-1)[: math.prod(shape)].reshape(shape)


def tile_rows(shape: tuple[int, ...]) -> int | None:
    """Rows per tile of a state of ``shape``, or None when it is one tile.

    A state of more than :data:`TILE_ENTRIES` entries is split along its
    first axis into the fewest equal power-of-two row tiles of at most that
    many entries (tiles of one row when a row alone holds more).
    """
    entries = math.prod(shape)
    if entries <= TILE_ENTRIES:
        return None
    return max(1, shape[0] >> ((entries - 1) // TILE_ENTRIES).bit_length())


def tile_work(tf: TransverseField, shape: tuple[int, ...]) -> np.ndarray | None:
    """The ``work`` of :func:`apply_initial` for states of ``shape``.

    It holds the low-bit product's input and output: two (2**m, k + 1)
    complex arrays, where k is the number of entries over 2**m, so each has
    one spare column.  Without it a row is a multiple of 512 bytes beyond
    N = 13, and the tiles' transposed reads of the output, a few columns at
    a time down all rows, land in an eighth of the cache sets: at N = 18
    they ran 2.8x slower.  None for N <= 13, which needs no work.
    """
    low = tf.couplings.indptr.size - 1
    if low == 1 << (tf.n_qubits - 1):
        return None
    return np.zeros((2, low, math.prod(shape) // low + 1), dtype=np.complex128)


def apply_initial(
    tf: TransverseField,
    psi: np.ndarray,
    out: np.ndarray | None = None,
    work: np.ndarray | None = None,
    rows: int | None = None,
) -> np.ndarray | Iterator[slice]:
    """Apply the full transverse-field Hamiltonian within the half space, into ``out``.

    ``psi`` is a half vector or a C-contiguous (2**(N-1), B) block of them;
    each column is transformed on its own.  ``out`` (complex128, psi's
    shape, C-contiguous) receives the result; without it one is allocated.
    Three steps:

    * the flips of the low m bits: ``couplings`` applied by
      :func:`csr_product` to the low-bit axis of the (2**(N-1-m), 2**m, B)
      view, moved to the front by a transposed copy; the copy and the
      product go to ``work``, :func:`tile_work`'s pair of arrays (allocated
      when not given; one made for a wider block is laid out again for
      ``psi``'s width on the front of its memory), and the product's
      transpose is the flip part of ``out``.  For N <= 13 there are no
      higher bits: the product is written straight into ``out`` and
      ``work`` is not used;
    * the flip of each bit k with m <= k < N-1: the row with bit k flipped
      subtracted, the first time from the transposed product (which so
      reaches ``out`` without a copy of its own), then in place: within a
      tile the two contiguous halves of every 2**(k+1)-row run swapped, one
      half at a time (numpy copies a view reversed along an outer axis),
      and beyond it one contiguous run of rows;
    * the flip of the top qubit: through the palindromic identification, the
      reversal of the half vector, subtracted.

    Without ``rows`` the call returns ``out`` complete, as one tile.  With
    it (and ``out``), only the low-bit product is done in the call, and the
    rest is left to the returned iterator: each row slice it yields,
    ``rows`` rows long from the top (see :func:`tile_rows`), is final in
    ``out`` and free to the caller, while ``psi``, ``work`` and the rest of
    ``out`` must stay untouched until the iterator is exhausted.  Each entry
    goes through the same operations in the same order either way, so the
    bits agree.  Given ``out`` and ``work``, a call allocates no vector, and
    every subtraction is in place.  A real ``psi`` is read as complex.
    """
    dim = 1 << (tf.n_qubits - 1)
    if psi.shape[0] != dim:
        raise ValueError(f"state length {psi.shape[0]} does not match half dimension {dim}")
    psi = np.ascontiguousarray(psi, dtype=np.complex128)
    if out is None:
        out = np.empty_like(psi)
    low = tf.couplings.indptr.size - 1
    if low == dim:  # N <= 13: no high bits, and no reshapes, whose overhead shows at N=8
        csr_product(tf.couplings, psi, out)
        flipped = None
    else:
        # one product for all runs: one per run, or on the top bits, ran 1.3-2x slower at N >= 15
        cols = psi.size // low
        x, y = tile_work(tf, psi.shape) if work is None else _front(work, (2, low, cols + 1))
        np.copyto(x[:, :cols].reshape(low, dim // low, -1),
                  psi.reshape(dim // low, low, -1).transpose(1, 0, 2))
        csr_product(tf.couplings, x, y)
        flipped = y[:, :cols].reshape(low, dim // low, -1)
    if rows is not None:
        return _finish_rows(tf, psi, out, flipped, rows)
    if flipped is None:
        out -= psi[::-1]
    else:
        for _ in _finish_rows(tf, psi, out, flipped, dim):
            pass
    return out


def _finish_rows(tf, psi, out, flipped, rows) -> Iterator[slice]:
    """The steps of :func:`apply_initial` after the low-bit product, ``rows`` rows at a time.

    ``flipped`` is that product as a (2**m, 2**(N-1-m), B) array, or None
    when there are no higher bits.
    """
    dim = psi.shape[0]
    for r0 in range(0, dim, rows):
        tile = slice(r0, r0 + rows)
        o = out[tile]
        if flipped is not None:
            low = flipped.shape[0]
            hi, lo = divmod(r0, low)
            src = flipped[lo:lo + rows, hi:hi + max(rows // low, 1)].transpose(1, 0, 2)
            dst = o.reshape(src.shape)  # (high part, low part, B) of the rows
            for k in range(low.bit_length() - 1, tf.n_qubits - 1):
                _subtract_flip(src, psi, dst, r0, k)
                src = dst
        np.subtract(o, psi[::-1][tile], out=o)
        yield tile


def _subtract_flip(src, psi, out, r0, k) -> None:
    """``out = src - psi`` at the row with bit k flipped, over the rows of ``out`` from r0.

    ``src`` and ``out`` are (high part, low part, B) views of a power-of-two
    tile of rows, with bit k in the high part.
    """
    rows = out.shape[0] * out.shape[1]
    if 1 << k >= rows:  # the flipped rows are one contiguous run
        p0 = r0 ^ (1 << k)
        np.subtract(src, psi[p0:p0 + rows].reshape(out.shape), out=out)
        return
    span = (1 << k) // out.shape[1]
    pairs = (out.shape[0] // (2 * span), 2, span) + out.shape[1:]
    s, o, p = src.reshape(pairs), out.reshape(pairs), psi[r0:r0 + rows].reshape(pairs)
    np.subtract(s[:, 0], p[:, 1], out=o[:, 0])
    np.subtract(s[:, 1], p[:, 0], out=o[:, 1])


def _spins(count: int, n_bits: int) -> np.ndarray:
    """``spins[i, q]`` = +1/-1 from bit q of i, for i < count (int64)."""
    return 1 - 2 * ((np.arange(count, dtype=np.int64)[:, None] >> np.arange(n_bits)) & 1)


def ising_half_diag(n_qubits: int, couplings: np.ndarray) -> np.ndarray:
    """Evaluate ``-sum_{k<l} J_kl z_k z_l`` over the first 2**(N-1) states.

    ``couplings`` is an (N, N) array, or a (B, N, N) stack of them, read on
    the upper triangle only; the result is one half diagonal, or a
    (B, 2**(N-1)) stack.  The half index ``i = hi * 2**m + lo`` splits the
    spins into the low m and the rest (top spin up), so ``E[hi, lo] =
    E_high[hi] + E_low[lo] +`` the couplings between the parts, one small
    matrix product per instance, all B in one batched call.  Only the result
    is as large as the output; the arithmetic is exact in int64.
    """
    m = n_qubits // 2
    j = np.triu(couplings, k=1).astype(np.int64)  # triu acts on the last two axes
    stack = j.reshape((-1, n_qubits, n_qubits))
    z_low = _spins(1 << m, m)
    z_high = _spins(1 << (n_qubits - 1 - m), n_qubits - m)
    energy = (z_high @ stack[:, :m, m:].transpose(0, 2, 1)) @ z_low.T
    energy += np.einsum("ik,bkl,il->bi", z_high, stack[:, m:, m:], z_high)[:, :, None]
    energy += np.einsum("ik,bkl,il->bi", z_low, stack[:, :m, :m], z_low)[:, None, :]
    np.negative(energy, out=energy)
    return energy.reshape(j.shape[:-2] + (1 << (n_qubits - 1),))


def random_ising_block(n_qubits: int, seeds: list[int]) -> list[IsingDiagonal]:
    """Draw one random +/-1 complete-graph Ising instance from each of ``seeds``.

    Couplings come from a counter-based Philox generator keyed by the seed,
    so identical (N, seed) pairs yield identical instances on any platform.
    Each seed's N(N-1)/2 signs are drawn from its own stream in
    lexicographic pair order (0,1), (0,2), ..., (N-2, N-1); the half
    diagonals of all seeds are then evaluated in one
    :func:`ising_half_diag` call, so an instance is the same whichever
    seeds it is drawn with.
    """
    _check_qubits(n_qubits)
    n_pairs = n_qubits * (n_qubits - 1) // 2
    signs = np.empty((len(seeds), n_pairs), dtype=np.int64)
    for row, seed in zip(signs, seeds):
        gen = np.random.Generator(np.random.Philox(np.random.SeedSequence(int(seed))))
        row[:] = gen.integers(0, 2, size=n_pairs)
    couplings = np.zeros((len(seeds), n_qubits, n_qubits), dtype=np.int64)
    upper = np.triu_indices(n_qubits, k=1)
    couplings[:, upper[0], upper[1]] = 2 * signs - 1
    halves = ising_half_diag(n_qubits, couplings)
    return [IsingDiagonal(n_qubits, h, int(s), c) for h, s, c in zip(halves, seeds, couplings)]


def random_ising_half(n_qubits: int, seed: int) -> IsingDiagonal:
    """The instance of ``seed``: :func:`random_ising_block` of one seed."""
    return random_ising_block(n_qubits, [seed])[0]


def ground_space(h: IsingDiagonal) -> GroundSpace:
    """Locate all minimal entries of the half diagonal (exact integers)."""
    energy = int(h.half_diag.min())
    indices = np.flatnonzero(h.half_diag == energy)
    return GroundSpace(indices, energy, int(indices.size))


def uniform_initial_state(n_qubits: int) -> np.ndarray:
    """Half-space ground state of the transverse field: all entries 2**(-N/2).

    Its lift to the full space is the normalized uniform superposition, so
    the half-space squared norm is exactly 1/2.
    """
    _check_qubits(n_qubits)
    dim = 1 << (n_qubits - 1)
    return np.full(dim, 2.0 ** (-n_qubits / 2.0), dtype=np.complex128)


def lift_to_full(psi: np.ndarray) -> np.ndarray:
    """Palindromic extension of a half vector to the full 2**N space."""
    return np.concatenate([psi, psi[::-1]])


def full_flip_matrix(n_qubits: int) -> CSR:
    """Full-space transverse-field matrix: -1 at ``(i, i ^ 2**k)`` for all k, as a :class:`CSR`.

    Used by the Lindblad module and the dense oracles; no symmetry reduction.
    """
    return _flip_matrix(n_qubits, -1.0)
