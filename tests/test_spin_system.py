import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import annealsim.spin_system as ss
from annealsim.errors import CapacityError
from annealsim.spin_system import (
    LOW_FLIP_BITS,
    IsingDiagonal,
    _flip_matrix,
    apply_initial,
    csr_product,
    full_flip_matrix,
    ground_space,
    ising_half_diag,
    lift_to_full,
    random_ising_block,
    random_ising_half,
    tile_work,
    transverse_field_half,
    uniform_initial_state,
)
from oracle import scipy_csr


def test_transverse_field_n2_matrix():
    tf = transverse_field_half(2)
    assert np.array_equal(scipy_csr(tf.couplings).toarray(), [[0, -1], [-1, 0]])


def test_transverse_field_n3_layout():
    # hand-traced flip pattern on 2 qubits: (i, i^1) and (i, i^2), all -1
    m = scipy_csr(transverse_field_half(3).couplings).toarray()
    expected = np.zeros((4, 4))
    for i in range(4):
        expected[i, i ^ 1] = -1
        expected[i, i ^ 2] = -1
    assert np.array_equal(m, expected)


@pytest.mark.parametrize("n", [2, 3, 4, 6, 9])
def test_transverse_field_nonzero_count_and_symmetry(n):
    m = scipy_csr(transverse_field_half(n).couplings)
    assert m.nnz == (n - 1) * 2 ** (n - 1)
    assert m.shape == (2 ** (n - 1),) * 2
    assert (m != m.T).nnz == 0
    assert np.all(m.diagonal() == 0)
    assert np.all(m.data == -1)


def test_transverse_field_rejects_small_and_huge():
    with pytest.raises(ValueError):
        transverse_field_half(1)
    with pytest.raises(CapacityError):
        transverse_field_half(64)


def test_apply_initial_uniform_is_eigenstate():
    # the uniform state is the ground state of H_i with eigenvalue -N
    for n in (2, 3, 5):
        tf = transverse_field_half(n)
        psi = uniform_initial_state(n)
        out = apply_initial(tf, psi)
        assert np.allclose(out, -n * psi, atol=1e-15)


def test_apply_initial_basis_vector():
    tf = transverse_field_half(3)
    out = apply_initial(tf, np.array([1.0, 0.0, 0.0, 0.0]))
    assert np.array_equal(out, [0, -1, -1, -1])


def test_apply_initial_dimension_mismatch():
    tf = transverse_field_half(3)
    with pytest.raises(ValueError):
        apply_initial(tf, np.zeros(8))


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_apply_initial_matches_dense_full_space(n):
    tf = transverse_field_half(n)
    hi_full = scipy_csr(full_flip_matrix(n)).toarray()
    rng = np.random.default_rng(n)
    dim = 1 << (n - 1)
    # random complex inputs over a range of magnitudes, then a real input
    cases = [(scale * (rng.normal(size=dim) + 1j * rng.normal(size=dim)), scale)
             for scale in (1.0, 1e-12, 1e12)]
    cases.append((rng.normal(size=dim), 1.0))
    for half, scale in cases:
        ref = hi_full @ lift_to_full(half)
        got = lift_to_full(apply_initial(tf, half))
        assert np.max(np.abs(ref - got)) < 1e-13 * scale


@pytest.mark.parametrize("n", [14, 15])
def test_apply_initial_high_bits_match_full_space(n):
    # beyond N = 13 the low-bit matrix, the high-bit half-block swaps and the
    # reversal together must give the full-space flip sum
    tf = transverse_field_half(n)
    hi_full = scipy_csr(full_flip_matrix(n))
    rng = np.random.default_rng(n)
    dim = 1 << (n - 1)
    cases = [(scale * (rng.normal(size=dim) + 1j * rng.normal(size=dim)), scale)
             for scale in (1.0, 1e-12, 1e12)]
    cases.append((rng.normal(size=dim), 1.0))
    cases.append((rng.normal(size=(dim, 3)) + 1j * rng.normal(size=(dim, 3)), 1.0))
    for half, scale in cases:
        ref = hi_full @ lift_to_full(half)
        got = lift_to_full(apply_initial(tf, half))
        assert got.shape == ref.shape
        assert np.max(np.abs(ref - got)) < 1e-13 * scale


@pytest.mark.parametrize("n", [8, 13])
def test_driver_matrix_is_whole_flip_matrix_up_to_n13(n):
    # up to N = 13 the low bits are all the half-space bits: today's matrix
    got = transverse_field_half(n).couplings
    ref = _flip_matrix(n - 1, -1.0)
    assert scipy_csr(got).shape == scipy_csr(ref).shape
    assert got.data.dtype == ref.data.dtype == np.float64
    for attr in ("data", "indices", "indptr"):
        assert np.array_equal(getattr(got, attr), getattr(ref, attr))


@pytest.mark.parametrize("n", [18, 20])
def test_driver_matrix_size_is_bounded(n):
    # the whole half-space matrix would be 45 MB at N=18 and 201 MB at N=20
    c = transverse_field_half(n).couplings
    assert c.data.nbytes + c.indices.nbytes + c.indptr.nbytes < 1.1e6


@pytest.mark.parametrize("n", [13, 14, 16])
def test_apply_initial_allocates_no_matrix_copy(n):
    # a product that upcast the driver matrix would allocate a complex copy
    # of its 0.4 MB of entries.  Without buffers a call allocates its output
    # and, beyond N = 13, tile_work's two states with a spare column each;
    # given them, it allocates no vector at all
    tf = transverse_field_half(n)
    psi = np.random.default_rng(0).normal(size=1 << (n - 1)) * (1 + 1j)
    out, work = np.empty_like(psi), tile_work(tf, psi.shape)
    peaks = []
    tracemalloc.start()
    try:
        for buffers in ((), (out, work)):
            tracemalloc.reset_peak()
            apply_initial(tf, psi, *buffers)
            peaks.append(tracemalloc.get_traced_memory()[1])
    finally:
        tracemalloc.stop()
    assert peaks[0] < 3 * psi.nbytes + 2 * (tf.couplings.indptr.size - 1) * 16 + 16384
    assert peaks[1] < psi.nbytes // 16


def _complex_csr_route(n, psi):
    """The driver product as a complex CSR product: the matrix stored with
    -1+0j entries, scipy's ``@`` on the transposed low-bit block, then the
    high-bit subtracts and the reversal."""
    m = min(n - 1, LOW_FLIP_BITS)
    c = scipy_csr(_flip_matrix(m, -1.0)).astype(np.complex128)
    dim, low = 1 << (n - 1), 1 << m
    if low == dim:
        out = c @ psi
    else:
        lows = np.ascontiguousarray(psi.reshape(dim // low, low, -1).transpose(1, 0, 2))
        flipped = c @ lows.reshape(low, -1)
        out = np.ascontiguousarray(flipped.reshape(low, dim // low, -1).transpose(1, 0, 2))
        out = out.reshape(psi.shape)
        for k in range(m, n - 1):
            o = out.reshape(dim >> (k + 1), 2, -1)
            np.subtract(o, psi.reshape(dim >> (k + 1), 2, -1)[:, ::-1], out=o)
    out -= psi[::-1]
    return out


@pytest.mark.parametrize("n", range(2, 19))
def test_apply_initial_into_out_is_complex_csr_route_bitwise(n):
    # the float64 matrix on the real view, written into out, gives the bits
    # of the complex-matrix product at every size, shape and magnitude
    tf = transverse_field_half(n)
    rng = np.random.default_rng(n)
    dim = 1 << (n - 1)
    for shape in ((dim,), (dim, 3)):
        base = rng.normal(size=shape) + 1j * rng.normal(size=shape)
        out, work = np.empty_like(base), tile_work(tf, shape)
        for scale in (1e-150, 1e-12, 1.0, 1e12, 1e150):
            psi = scale * base
            got = apply_initial(tf, psi, out, work)
            assert got is out
            ref = _complex_csr_route(n, psi)
            assert ref.dtype == out.dtype and ref.shape == out.shape
            assert ref.tobytes() == out.tobytes()


@pytest.mark.parametrize("shape", [(64, 1), (4096, 6), (256, 2)])
def test_csr_product_is_scipy_product(shape):
    # csr_product calls scipy's private csr_matvecs on a zeroed output;
    # it must stay the routine behind mat @ x
    rows, width = shape
    mat = _flip_matrix(rows.bit_length() - 1, -1.0)
    rng = np.random.default_rng(rows)
    x = rng.normal(size=shape) + 1j * rng.normal(size=shape)
    out = np.full_like(x, np.nan)  # stale contents must not leak in
    csr_product(mat, x, out)
    ref = scipy_csr(mat) @ x.view(np.float64)
    assert ref.dtype == np.float64
    assert ref.tobytes() == out.view(np.float64).tobytes()
    assert np.array_equal(out, scipy_csr(mat).astype(np.complex128) @ x)


def test_sparsetools_loader_falls_back_to_scipy_package(tmp_path, monkeypatch):
    # a scipy without the extension file beside its package (an editable
    # build, say) is served through the package; the routine is the same
    from scipy.sparse import _sparsetools as package_module

    assert ss._load_sparsetools(str(tmp_path)) is package_module
    assert ss._sparsetools is not package_module
    mat = _flip_matrix(6, -1.0)
    x = np.random.default_rng(6).normal(size=(64, 3)) * (1 - 2j)
    from_file = csr_product(mat, x, np.empty_like(x)).copy()
    monkeypatch.setattr(ss, "_sparsetools", package_module)
    assert csr_product(mat, x, np.empty_like(x)).tobytes() == from_file.tobytes()


SPARSE_PACKAGE_CHECK = """
import sys
from annealsim import (AnnealParams, EnsembleConfig, LZParams, lz_propagate, propagate,
                       propagate_density, random_ising_half, run_ensemble)
assert propagate(AnnealParams(8, 2.0), random_ising_half(8, 1)).converged
assert propagate_density(AnnealParams(3, 2.0), random_ising_half(3, 1), 0.1).converged
assert lz_propagate(LZParams(1.0, 20.0)).converged
result = run_ensemble(EnsembleConfig(8, 2.0, 6, 1), workers=2)
assert result.workers == 2 and result.failure_count == 0
loaded = sorted(name for name in sys.modules if name.startswith("scipy.sparse"))
assert not loaded, loaded
"""


def test_simulator_never_imports_scipy_sparse_package():
    # csr_product needs one compiled routine; importing the scipy.sparse
    # package for it would double the start-up of every process
    src = Path(ss.__file__).resolve().parent.parent
    proc = subprocess.run([sys.executable, "-c", SPARSE_PACKAGE_CHECK], capture_output=True,
                          text=True, env={**os.environ, "PYTHONPATH": str(src)}, timeout=300)
    assert proc.returncode == 0, proc.stdout + proc.stderr


def test_ising_half_diag_allocates_no_spin_matrix():
    # a (2**(N-1), N) int64 spin table alone would be 16x the output at N=16;
    # a stack of coupling matrices gives a stack of half diagonals, within
    # the same bound on the whole stack
    n = 16
    rows, cols = np.triu_indices(n, 1)
    stack = np.zeros((3, n, n), dtype=np.int64)
    stack[:, rows, cols] = np.random.default_rng(3).choice([-1, 1], size=(3, rows.size))
    # reference: the energy evaluated from the full spin table
    spins = 1 - 2 * ((np.arange(1 << (n - 1))[:, None] >> np.arange(n)) & 1)
    for j in (stack[0], stack):
        tracemalloc.start()
        try:
            half = ising_half_diag(n, j)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert half.shape == j.shape[:-2] + (1 << (n - 1),)
        assert peak < 4 * half.nbytes
        for got, jb in zip(half.reshape(-1, 1 << (n - 1)), j.reshape(-1, n, n)):
            expected = -np.einsum("ik,kl,il->i", spins, np.triu(jb, 1), spins)
            assert got.dtype == np.int64 and np.array_equal(got, expected)


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_full_driver_operator_norm_is_n(n):
    hi = scipy_csr(full_flip_matrix(n)).toarray()
    assert abs(np.linalg.norm(hi, 2) - n) < 1e-10


def test_ising_half_diag_n2_single_pair():
    j = np.zeros((2, 2), dtype=np.int64)
    j[0, 1] = 1
    assert np.array_equal(ising_half_diag(2, j), [-1, 1])


def test_ising_half_diag_all_aligned():
    j = np.zeros((3, 3), dtype=np.int64)
    j[np.triu_indices(3, 1)] = 1
    half = ising_half_diag(3, j)
    assert np.array_equal(half, [-3, 1, 1, 1])
    gs = ground_space(IsingDiagonal(3, half, 0, j))
    assert list(gs.indices) == [0] and gs.degeneracy == 1 and gs.energy == -3


def test_ising_half_diag_mixed_couplings():
    # one frustrated pair; expected values from enumerating all 8 spin states
    j = np.zeros((3, 3), dtype=np.int64)
    j[1, 2] = 1
    j[0, 2] = 1
    j[0, 1] = -1
    half = ising_half_diag(3, j)
    assert np.array_equal(half, [-1, -1, -1, 3])
    gs = ground_space(IsingDiagonal(3, half, 0, j))
    assert list(gs.indices) == [0, 1, 2] and gs.degeneracy == 3


def test_ising_half_diag_brute_force_agreement():
    # independent oracle: enumerate spins state by state
    rng = np.random.default_rng(8)
    for n in (2, 3, 4, 5):
        j = np.zeros((n, n), dtype=np.int64)
        j[np.triu_indices(n, 1)] = rng.choice([-1, 1], size=n * (n - 1) // 2)
        half = ising_half_diag(n, j)
        for i in range(1 << (n - 1)):
            z = [1 - 2 * ((i >> q) & 1) for q in range(n)]
            e = -sum(j[k, l] * z[k] * z[l] for k in range(n) for l in range(k + 1, n))
            assert half[i] == e


@pytest.mark.parametrize("n", [2, 4, 7, 10])
def test_random_ising_palindrome_parity_bounds(n):
    bound = n * (n - 1) // 2
    for seed in range(8):
        inst = random_ising_half(n, seed)
        full = inst.full_diag()
        assert np.array_equal(full, full[::-1])
        assert np.all((inst.half_diag - bound) % 2 == 0)
        assert inst.half_diag.min() >= -bound
        assert inst.half_diag.max() <= bound


@pytest.mark.parametrize("n", [2, 3, 8, 13, 14, 20])
def test_random_ising_block_is_each_seeds_instance(n):
    # one pass over many seeds draws each from its own stream: every instance
    # is the one its seed gives alone, whatever its neighbours
    seeds = [7, 2**63 + 5, 0, 7]
    block = random_ising_block(n, seeds)
    assert len(block) == len(seeds)
    for inst, seed in zip(block, seeds):
        alone = random_ising_half(n, seed)
        assert inst.n_qubits == n and inst.seed == seed
        assert inst.half_diag.dtype == inst.couplings.dtype == np.int64
        assert inst.half_diag.tobytes() == alone.half_diag.tobytes()
        assert inst.couplings.tobytes() == alone.couplings.tobytes()
    assert not np.array_equal(block[0].couplings, block[1].couplings)
    assert np.array_equal(block[0].half_diag, block[3].half_diag)
    assert random_ising_block(n, []) == []


def test_random_ising_seed_determinism():
    a = random_ising_half(6, 12345)
    b = random_ising_half(6, 12345)
    c = random_ising_half(6, 12346)
    assert np.array_equal(a.half_diag, b.half_diag)
    assert np.array_equal(a.couplings, b.couplings)
    assert not np.array_equal(a.half_diag, c.half_diag)


def test_ground_space_examples():
    gs = ground_space(IsingDiagonal(2, np.array([-1, 1]), 0, np.zeros((2, 2), dtype=np.int64)))
    assert list(gs.indices) == [0] and gs.energy == -1 and gs.degeneracy == 1


def test_uniform_initial_state():
    for n in (2, 3, 7):
        psi = uniform_initial_state(n)
        assert psi.shape == (1 << (n - 1),)
        assert np.allclose(psi, 2.0 ** (-n / 2.0))
        assert abs(np.vdot(psi, psi).real - 0.5) < 1e-15
    assert np.array_equal(uniform_initial_state(2), [0.5, 0.5])


def test_lift_to_full():
    assert np.array_equal(lift_to_full(np.array([0.5, 0.5])), [0.5, 0.5, 0.5, 0.5])
    a, b = 0.3, 0.7j
    assert np.array_equal(lift_to_full(np.array([a, b])), [a, b, b, a])
    full = lift_to_full(uniform_initial_state(5))
    assert abs(np.linalg.norm(full) - 1.0) < 1e-15
