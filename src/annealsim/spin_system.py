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
import os
from dataclasses import dataclass, field
from functools import lru_cache
from types import ModuleType
from typing import Iterator, NamedTuple

import numpy as np

from .errors import CapacityError, check_integer

# Dimension caps: half-space vectors beyond 2**19 entries (N > 20) leave no
# headroom for the propagator's work vectors on a desk-scale machine; the
# driver matrix no longer grows with N, so the work vectors alone set the cap.
# An anneal at N = 18 peaks at about 8.6 of them: the kernel's input and
# three fresh term buffers, its sum, the pair's two tile_work scratches, the
# diagonal, the driver and a tile (107 MB RSS for one N = 20 anneal).
MAX_QUBITS = 20
# The driver matrix covers the low min(N-1, LOW_FLIP_BITS) bits: 2**12 rows
# of 12 entries, about 0.6 MB, whatever N (see apply_initial).
LOW_FLIP_BITS = 12
# Up to LOW_FLIP_BITS + 1 qubits the driver is one whole CSR, and a state is
# whole: a vector, or a block of at most this many entries (block_columns: 64
# columns at N = 8, 2 at N = 13).  Twice as wide was no faster at N = 8-12.
BLOCK_ENTRIES = 1 << (LOW_FLIP_BITS + 1)
# Beyond, a state is a vector, handed over in row tiles of this many entries
# (one tile up to N = 16), 512 KB of complex128, so that a tile stays in a
# core's L2 (2 MB on the x86 host measured) from the driver product's last
# pass to the Taylor kernel's, where a whole 2 MB half vector at N = 18
# streams from L3 on every pass.  There, 2**14 and 2**16 were slower.
TILE_ENTRIES = 2**15


def check_qubits(n_qubits, limit: int = MAX_QUBITS) -> int:
    """``n_qubits`` as an int if it passes ``check_integer`` with minimum 2
    (else a ValueError) and is at most ``limit`` (else a CapacityError)."""
    n = check_integer("n_qubits", n_qubits, 2)
    if n > limit:
        raise CapacityError(f"{n} qubits exceeds the supported limit of {limit}")
    return n


def ising_norm_bound(n_qubits: int) -> float:
    """N + N(N-1)/2, a bound on ||H(s)|| = ||(1-s) H_i + s H_f|| over [0, 1]
    for every +/-1 complete-graph instance on ``n_qubits``: ||H_i|| <= N, one
    per qubit, and max|E| <= N(N-1)/2, one per coupling."""
    return n_qubits + n_qubits * (n_qubits - 1) / 2


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
    arrays of a :class:`CSR`.  For N <= 13 it is the whole half-space
    driver: each row ends with the top-qubit flip, -1 at ``2**(N-1) - 1 - i``
    (see :func:`transverse_field_half`), and ``complex_data`` holds its
    entries as complex128 for one-column products.  Beyond, it acts on the
    low bits of each contiguous run of 2**m half-space entries, and the
    flips of the higher bits and of the top qubit (the reversal of the half
    vector) are applied separately (see :func:`apply_initial`).
    """

    n_qubits: int
    couplings: CSR
    complex_data: np.ndarray | None = field(default=None, repr=False)


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
        return lift_to_full(self.half_diag)


def full_flip_matrix(n_bits: int) -> CSR:
    """The driver on ``n_bits`` bits: -1 at ``(i, i ^ 2**k)`` for all k, as a :class:`CSR`.

    Every row holds n_bits entries, so the three arrays are written directly
    (int32 column indices sorted within each row, float64 values) rather
    than assembled from coordinates, which would hold several index arrays
    of the full entry count at once.  On N bits it is the full-space driver.
    """
    dim = 1 << n_bits
    idx = np.arange(dim, dtype=np.int32)
    cols = np.sort(idx[:, None] ^ (1 << np.arange(n_bits, dtype=np.int32)), axis=1)
    indptr = np.arange(0, cols.size + 1, n_bits, dtype=np.int32)
    return CSR(np.full(cols.size, -1.0), cols.ravel(), indptr)


def transverse_field_half(n_qubits: int) -> TransverseField:
    """Build the half-space flip structure for ``n_qubits`` qubits.

    The matrix is ``full_flip_matrix(m)`` for the low m = min(N-1, 12)
    bits: 2**m rows of m entries, so 0.6 MB at every N >= 14 (the full
    half-space matrix would be 45 MB at N=18).  For N <= 13 each row ends
    with the top-qubit flip, so it sums in the order of the two passes it
    replaces: the bit flips, then the reversed entry (at N = 2 a repeat of
    column 1, which both scipy routines add in turn, as before).
    """
    check_qubits(n_qubits)
    m = n_qubits - 1
    if m > LOW_FLIP_BITS:
        return TransverseField(n_qubits, full_flip_matrix(LOW_FLIP_BITS))
    flips, dim = full_flip_matrix(m), 1 << m
    cols = np.insert(flips.indices.reshape(dim, m), m, np.arange(dim - 1, -1, -1), axis=1).ravel()
    mat = CSR(np.full(cols.size, -1.0), cols, np.arange(0, cols.size + 1, m + 1, dtype=np.int32))
    return TransverseField(n_qubits, mat, mat.data.astype(np.complex128))


def _load_sparsetools(directory: str) -> ModuleType:
    """scipy's compiled CSR routines, loaded from the extension file in ``directory``.

    Importing them as ``scipy.sparse._sparsetools`` runs the ``scipy.sparse``
    package first, whose array-API layer imports much of numpy besides
    (``numpy.f2py``, ``numpy.testing``, ``numpy.ma``): half of this
    package's import time, in every process, for one routine.  The
    directory comes from :func:`_scipy_directory`, which does not run the
    ``scipy`` package either.  Where ``directory`` holds no such file (an
    editable scipy, say), the package is imported after all.
    """
    spec = importlib.machinery.PathFinder.find_spec("_sparsetools", [directory])
    if spec is None:
        from scipy.sparse import _sparsetools
        return _sparsetools
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _scipy_directory() -> str:
    """The directory of the installed ``scipy`` package, found without importing it
    (``import scipy`` alone loads a dozen modules that no routine here uses)."""
    spec = importlib.util.find_spec("scipy")
    if spec is None or not spec.submodule_search_locations:
        raise ModuleNotFoundError("annealsim needs scipy", name="scipy")
    return spec.submodule_search_locations[0]


_sparsetools = _load_sparsetools(os.path.join(_scipy_directory(), "sparse"))


def csr_product(mat: CSR, x: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Write ``mat @ x`` into ``out`` for a float64 :class:`CSR` and a float64 or complex128 ``x``.

    ``x`` and ``out`` are C-contiguous, of the same shape and dtype, with
    the matrix acting on their first axis.  The product runs on their
    float64 views, in which a complex entry is two adjacent real columns:
    this is scipy's routine for a CSR matrix times a real block
    (``csr_matvecs`` into a zeroed result), called on ``out`` instead of a
    new array, for the Lindblad pair's matrices and for driver products of
    more than one column (one column runs scipy's complex routine, see
    :func:`apply_initial`).  For finite entries a complex result is bit for
    bit that of the same matrix stored complex: there a real entry c times
    x + iy is (cx - 0y) + i(cy + 0x), whose zero terms change nothing once
    the zeroed sum absorbs their sign.  The matrix is square (see
    :class:`CSR`): its row count is checked against ``x``.
    """
    indptr, indices, data = mat.indptr, mat.indices, mat.data
    n = indptr.shape[0] - 1
    # the routine trusts its sizes: a mismatch would write past ``out``
    if not (
        x.shape[0] == n and x.shape == out.shape
        and x.dtype == out.dtype and x.dtype in (np.complex128, np.float64)
        and data.dtype == np.float64 and x.flags.c_contiguous and out.flags.c_contiguous
    ):
        raise ValueError("csr_product needs a float64 matrix and C-contiguous x and out of "
                         "one shape and dtype (float64 or complex128), with its row count")
    xr, yr = x.view(np.float64), out.view(np.float64)
    yr.fill(0.0)
    _sparsetools.csr_matvecs(n, n, xr.size // n, indptr, indices, data, xr, yr)
    return out


def block_columns(n_qubits: int) -> int:
    """Instances per state at ``n_qubits``: the half vectors that fit in
    :data:`BLOCK_ENTRIES`, and so one, a vector, beyond 13 qubits."""
    return max(1, BLOCK_ENTRIES >> (n_qubits - 1))


def tile_work(tf: TransverseField) -> np.ndarray | None:
    """The ``work`` of :func:`apply_initial` for one vector beyond 13 qubits.

    It holds the low-bit product's input and output: two (2**m, k + 1)
    complex arrays, where k is the number of entries over 2**m, so each has
    one spare column.  Without it a row is a multiple of 512 bytes, and the
    tiles' transposed reads of the output, a few columns at a time down all
    rows, land in an eighth of the cache sets: at N = 18 they ran 2.8x
    slower.  None for N <= 13, which needs no work.
    """
    if tf.complex_data is not None:
        return None
    low = tf.couplings.indptr.size - 1
    return np.zeros((2, low, (1 << (tf.n_qubits - 1)) // low + 1), dtype=np.complex128)


def apply_initial(
    tf: TransverseField,
    psi: np.ndarray,
    out: np.ndarray | None = None,
    work: np.ndarray | None = None,
    tiled: bool = False,
) -> np.ndarray | Iterator[slice]:
    """Apply the full transverse-field Hamiltonian within the half space, into ``out``.

    ``psi`` is a half vector or, up to N = 13 only, a C-contiguous
    (2**(N-1), B) block of them; each column is transformed on its own.
    ``out`` (complex128, psi's shape, C-contiguous; checked) receives the
    result; without it one is allocated.  For N <= 13 ``couplings`` is the
    whole driver, and the call is one compiled product into ``out``:
    scipy's ``csr_matvec`` on ``complex_data`` for one column (a vector or a
    (dim, 1) block), which is scipy's complex ``c @ psi``, and
    :func:`csr_product` for a wider block; ``work`` is not used.  Beyond,
    three steps on the vector:

    * the flips of the low m bits: ``couplings`` applied by
      :func:`csr_product` to the low-bit axis of the (2**(N-1-m), 2**m)
      view, moved to the front by a transposed copy; the copy and the
      product go to ``work``, ``tile_work(tf)`` (allocated when not given),
      and the product's transpose is the flip part of ``out``;
    * the flip of each bit k with m <= k < N-1: the row with bit k flipped
      subtracted, the first time from the transposed product (which so
      reaches ``out`` without a copy of its own), then in place: within a
      tile the two contiguous halves of every 2**(k+1)-row run swapped, one
      half at a time (numpy copies a view reversed along an outer axis),
      and beyond it one contiguous run of rows;
    * the flip of the top qubit: through the palindromic identification, the
      reversal of the half vector, subtracted.

    Without ``tiled`` the call returns ``out`` complete, as one tile.  With
    it (and ``out``, beyond N = 13), the call does the low-bit product and
    leaves the rest to the returned iterator: each row slice it yields,
    :data:`TILE_ENTRIES` rows long from the top (all up to N = 16), is final
    in ``out`` and free to the caller, while ``psi``, ``work`` and the rest
    of ``out`` must stay untouched until the iterator is exhausted.  Each
    entry goes through the same operations in the same order either way, so
    the bits agree.  Given ``out`` and ``work``, a call allocates no vector,
    and every subtraction is in place.  A real ``psi`` is read as complex.
    """
    dim = 1 << (tf.n_qubits - 1)
    if psi.shape[0] != dim:
        raise ValueError(f"state length {psi.shape[0]} does not match half dimension {dim}")
    psi = np.ascontiguousarray(psi, dtype=np.complex128)
    if out is None:
        out = np.empty_like(psi)
    mat = tf.couplings
    if tf.complex_data is not None:  # N <= 13: one compiled call, and no reshapes
        if tiled:
            raise ValueError(f"a state of {tf.n_qubits} qubits is one tile: it is not tiled")
        if psi.size != dim:
            csr_product(mat, psi, out)
        elif out.shape == psi.shape and out.dtype == np.complex128 and out.flags.c_contiguous:
            out.fill(0)  # the routine adds to out: its sizes are checked above
            _sparsetools.csr_matvec(dim, dim, mat.indptr, mat.indices, tf.complex_data, psi, out)
        else:
            raise ValueError("out must be a C-contiguous complex128 array of the state's shape")
        return out
    if psi.ndim != 1:
        raise ValueError(f"a block is at most {LOW_FLIP_BITS + 1} qubits, got {tf.n_qubits}")
    # one product for all runs: one per run, or on the top bits, ran 1.3-2x slower at N >= 15
    low = mat.indptr.size - 1
    x, y = tile_work(tf) if work is None else work
    np.copyto(x[:, :-1], psi.reshape(dim // low, low).T)
    csr_product(mat, x, y)
    tiles = _finish_rows(tf, psi, out, y[:, :-1], min(TILE_ENTRIES, dim) if tiled else dim)
    if tiled:
        return tiles
    for _ in tiles:
        pass
    return out


def _finish_rows(tf, psi, out, flipped, rows) -> Iterator[slice]:
    """The steps of :func:`apply_initial` after the low-bit product, ``rows`` rows at a time;
    ``flipped`` is that product as a (2**m, 2**(N-1-m)) array."""
    dim, low = psi.size, flipped.shape[0]
    for r0 in range(0, dim, rows):
        tile = slice(r0, r0 + rows)
        o = out[tile]
        hi, lo = divmod(r0, low)
        src = flipped[lo:lo + rows, hi:hi + max(rows // low, 1)].T
        dst = o.reshape(src.shape)  # (high part, low part) of the rows
        for k in range(low.bit_length() - 1, tf.n_qubits - 1):
            _subtract_flip(src, psi, dst, r0, k)
            src = dst
        np.subtract(o, psi[::-1][tile], out=o)
        yield tile


def _subtract_flip(src, psi, out, r0, k) -> None:
    """``out = src - psi`` at the row with bit k flipped, over the rows of ``out`` from r0.

    ``src`` and ``out`` are (high part, low part) views of a power-of-two
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


def _read_only(*tables: np.ndarray) -> tuple[np.ndarray, ...]:
    for table in tables:
        table.flags.writeable = False
    return tables


@lru_cache(maxsize=None)
def _spin_tables(n_qubits: int) -> tuple[np.ndarray, np.ndarray]:
    """The spins of :func:`ising_half_diag` at ``n_qubits``: of the low m = N // 2
    qubits, and of the rest with the top spin up; built once per N, read-only."""
    m = n_qubits // 2
    return _read_only(_spins(1 << m, m), _spins(1 << (n_qubits - 1 - m), n_qubits - m))


@lru_cache(maxsize=None)
def _pair_indices(n_qubits: int) -> tuple[np.ndarray, np.ndarray]:
    """``np.triu_indices(n_qubits, 1)``, the pairs k < l in lexicographic order;
    built once per N, read-only."""
    return _read_only(*np.triu_indices(n_qubits, k=1))


def ising_half_diag(n_qubits: int, couplings: np.ndarray) -> np.ndarray:
    """Evaluate ``-sum_{k<l} J_kl z_k z_l`` over the first 2**(N-1) states.

    ``couplings`` is an (N, N) array, or a (B, N, N) stack of them, read on
    the upper triangle only; the result is one half diagonal, or a
    (B, 2**(N-1)) stack.  The half index ``i = hi * 2**m + lo`` splits the
    spins into the low m and the rest (top spin up), so ``E[hi, lo] =
    E_high[hi] + E_low[lo] +`` the couplings between the parts, one small
    matrix product per instance, all B in one batched call.  The two spin
    tables depend on N alone, and are built on the first call at each N
    (:func:`_spin_tables`).  Only the result is as large as the output; the
    arithmetic is exact in int64.
    """
    m = n_qubits // 2
    j = np.triu(couplings, k=1).astype(np.int64)  # triu acts on the last two axes
    stack = j.reshape((-1, n_qubits, n_qubits))
    z_low, z_high = _spin_tables(n_qubits)
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
    lexicographic pair order (0,1), (0,2), ..., (N-2, N-1), the pair table
    of :func:`_pair_indices`, built once per N; the half diagonals of all
    seeds are then evaluated in one :func:`ising_half_diag` call, so an
    instance is the same whichever seeds it is drawn with.
    """
    check_qubits(n_qubits)
    seeds = [check_integer("seed", seed, 0) for seed in seeds]
    n_pairs = n_qubits * (n_qubits - 1) // 2
    signs = np.empty((len(seeds), n_pairs), dtype=np.int64)
    for row, seed in zip(signs, seeds):
        gen = np.random.Generator(np.random.Philox(np.random.SeedSequence(seed)))
        row[:] = gen.integers(0, 2, size=n_pairs)
    couplings = np.zeros((len(seeds), n_qubits, n_qubits), dtype=np.int64)
    rows, cols = _pair_indices(n_qubits)
    couplings[:, rows, cols] = 2 * signs - 1
    halves = ising_half_diag(n_qubits, couplings)
    return [IsingDiagonal(n_qubits, h, s, c) for h, s, c in zip(halves, seeds, couplings)]


def random_ising_half(n_qubits: int, seed: int) -> IsingDiagonal:
    """The instance of ``seed``: :func:`random_ising_block` of one seed."""
    return random_ising_block(n_qubits, [seed])[0]


def ground_space(diag: np.ndarray) -> np.ndarray:
    """The indices of the minimal entries of an Ising diagonal, half or full.

    Exact integer comparison: the one ground-space rule of both state spaces.
    """
    return np.flatnonzero(diag == diag.min())


def uniform_initial_state(n_qubits: int) -> np.ndarray:
    """Half-space ground state of the transverse field: all entries 2**(-N/2).

    Its lift to the full space is the normalized uniform superposition, so
    the half-space squared norm is exactly 1/2.
    """
    check_qubits(n_qubits)
    dim = 1 << (n_qubits - 1)
    return np.full(dim, 2.0 ** (-n_qubits / 2.0), dtype=np.complex128)


def lift_to_full(psi: np.ndarray) -> np.ndarray:
    """Palindromic extension of a half vector to the full 2**N space."""
    return np.concatenate([psi, psi[::-1]])
