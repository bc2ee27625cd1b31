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

from dataclasses import dataclass, field

import numpy as np
from scipy.sparse import csr_matrix

from .errors import CapacityError

# Dimension caps: half-space vectors beyond 2**19 entries (N > 20) leave no
# headroom for the propagator's work vectors on a desk-scale machine.
MAX_QUBITS = 20


def _check_qubits(n_qubits: int, limit: int = MAX_QUBITS) -> None:
    if n_qubits < 2:
        raise ValueError(f"need at least 2 qubits, got {n_qubits}")
    if n_qubits > limit:
        raise CapacityError(f"{n_qubits} qubits exceeds the supported limit of {limit}")


@dataclass(frozen=True)
class TransverseField:
    """Single-bit-flip coupling structure on the low N-1 qubits.

    ``couplings`` is the sparse symmetric complex128 matrix with value -1 at
    ``(i, i ^ 2**k)`` for every half-space index ``i`` and ``k < N-1``;
    complex entries let it multiply complex states without an upcast copy.
    The flip of the top qubit maps a half index to the reversal of the
    half vector and is applied separately (see :func:`apply_initial`).
    """

    n_qubits: int
    couplings: csr_matrix


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


def transverse_field_half(n_qubits: int) -> TransverseField:
    """Build the half-space flip structure for ``n_qubits`` qubits.

    The matrix acts on vectors of length 2**(N-1) and carries exactly
    (N-1) * 2**(N-1) entries, all equal to -1.  Every row holds N-1 entries,
    so the CSR arrays are written directly (column indices sorted within
    each row) rather than assembled from coordinates, which would hold
    several index arrays of the full entry count at once.
    """
    _check_qubits(n_qubits)
    dim = 1 << (n_qubits - 1)
    idx = np.arange(dim, dtype=np.int32)
    cols = np.sort(idx[:, None] ^ (1 << np.arange(n_qubits - 1, dtype=np.int32)), axis=1)
    indptr = np.arange(0, cols.size + 1, n_qubits - 1, dtype=np.int32)
    vals = np.full(cols.size, -1.0 + 0.0j)
    return TransverseField(n_qubits, csr_matrix((vals, cols.ravel(), indptr), shape=(dim, dim)))


def apply_initial(tf: TransverseField, psi: np.ndarray) -> np.ndarray:
    """Apply the full transverse-field Hamiltonian within the half space.

    Returns ``couplings @ psi - psi[::-1]``; the reversal term is the flip
    of the top qubit routed through the palindromic identification.

    The matrix is stored complex, like the states, so the product reads it
    as stored; a float64 matrix times a complex vector would make scipy
    upcast a complex copy of the whole matrix on every call (35 MB at
    N=18).  The product allocates only the returned vector, and the
    reversal is subtracted from it in place.  A real vector gives a complex
    result.
    """
    if psi.shape[0] != tf.couplings.shape[0]:
        raise ValueError(
            f"state length {psi.shape[0]} does not match half dimension {tf.couplings.shape[0]}"
        )
    out = tf.couplings @ psi
    out -= psi[::-1]
    return out


def ising_half_diag(n_qubits: int, couplings: np.ndarray) -> np.ndarray:
    """Evaluate ``-sum_{k<l} J_kl z_k z_l`` over the first 2**(N-1) states.

    ``couplings`` is an (N, N) array read on the upper triangle only.
    """
    dim = 1 << (n_qubits - 1)
    idx = np.arange(dim, dtype=np.int64)
    # spins[i, q] = +1/-1 from bit q of i; the top qubit is spin up throughout.
    spins = 1 - 2 * ((idx[:, None] >> np.arange(n_qubits)) & 1)
    j_sym = np.triu(couplings, k=1)
    j_sym = j_sym + j_sym.T
    energies = -0.5 * np.einsum("ik,kl,il->i", spins, j_sym, spins)
    return np.rint(energies).astype(np.int64)


def random_ising_half(n_qubits: int, seed: int) -> IsingDiagonal:
    """Draw a random +/-1 complete-graph Ising instance from ``seed``.

    Couplings come from a counter-based Philox generator keyed by the seed,
    so identical (N, seed) pairs yield identical instances on any platform.
    The N(N-1)/2 signs are drawn in lexicographic pair order (0,1), (0,2),
    ..., (N-2, N-1).
    """
    _check_qubits(n_qubits)
    gen = np.random.Generator(np.random.Philox(np.random.SeedSequence(int(seed))))
    n_pairs = n_qubits * (n_qubits - 1) // 2
    signs = 2 * gen.integers(0, 2, size=n_pairs).astype(np.int64) - 1
    couplings = np.zeros((n_qubits, n_qubits), dtype=np.int64)
    couplings[np.triu_indices(n_qubits, k=1)] = signs
    half = ising_half_diag(n_qubits, couplings)
    return IsingDiagonal(n_qubits, half, int(seed), couplings)


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


def full_flip_matrix(n_qubits: int) -> csr_matrix:
    """Full-space transverse-field matrix: -1 at ``(i, i ^ 2**k)`` for all k.

    Used by the Lindblad module and the dense oracles; no symmetry reduction.
    """
    dim = 1 << n_qubits
    idx = np.arange(dim, dtype=np.int64)
    rows = np.concatenate([idx for _ in range(n_qubits)])
    cols = np.concatenate([idx ^ (1 << k) for k in range(n_qubits)])
    vals = np.full(rows.shape, -1.0)
    return csr_matrix((vals, (rows, cols)), shape=(dim, dim))
