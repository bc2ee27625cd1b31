import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import annealsim.spin_system as ss
from annealsim.errors import CapacityError
from annealsim.lindblad_propagator import check_density_input
from annealsim.spin_system import (
    LOW_FLIP_BITS,
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
    # the flip of bit 0 and the top-qubit flip both land on the other row
    tf = transverse_field_half(2)
    assert np.array_equal(scipy_csr(tf.couplings).toarray(), [[0, -2], [-2, 0]])


def test_transverse_field_n3_layout():
    # hand-traced flip pattern on 3 qubits: (i, i^1), (i, i^2) and the
    # top-qubit flip (i, 3 - i), all -1
    m = scipy_csr(transverse_field_half(3).couplings).toarray()
    expected = np.zeros((4, 4))
    for i in range(4):
        expected[i, i ^ 1] = -1
        expected[i, i ^ 2] = -1
        expected[i, 3 - i] = -1
    assert np.array_equal(m, expected)


@pytest.mark.parametrize("n", [2, 3, 4, 6, 9])
def test_transverse_field_nonzero_count_and_symmetry(n):
    m = scipy_csr(transverse_field_half(n).couplings)
    assert m.nnz == n * 2 ** (n - 1)
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
    for half, scale in cases:
        ref = hi_full @ lift_to_full(half)
        got = lift_to_full(apply_initial(tf, half))
        assert got.shape == ref.shape
        assert np.max(np.abs(ref - got)) < 1e-13 * scale


@pytest.mark.parametrize("n", [8, 13])
def test_driver_matrix_is_whole_flip_matrix_up_to_n13(n):
    # up to N = 13 the low bits are all the half-space bits: each row of
    # the flip matrix, then the top-qubit flip (i, dim - 1 - i) as its last entry
    tf = transverse_field_half(n)
    got, flips, dim = tf.couplings, full_flip_matrix(n - 1), 1 << (n - 1)
    indices = []
    for i in range(dim):
        indices.extend(flips.indices[flips.indptr[i]:flips.indptr[i + 1]])
        indices.append(dim - 1 - i)
    assert scipy_csr(got).shape == scipy_csr(flips).shape
    assert got.data.dtype == np.float64 and got.indices.dtype == got.indptr.dtype == np.int32
    assert np.array_equal(got.indptr, np.arange(dim + 1) * n)
    assert np.array_equal(got.indices, indices)
    assert np.array_equal(got.data, np.full(dim * n, -1.0))
    assert tf.complex_data.dtype == np.complex128
    assert np.array_equal(tf.complex_data, got.data)


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
    out, work = np.empty_like(psi), tile_work(tf)
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
    c = scipy_csr(full_flip_matrix(m)).astype(np.complex128)
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
    # one column through scipy's complex routine, or a block through the
    # float64 matrix on its real view, written into out, gives the bits of
    # the complex-matrix product then the reversal at every size, shape and
    # magnitude, though up to N = 13 the reversal is the matrix's last entry
    tf = transverse_field_half(n)
    rng = np.random.default_rng(n)
    dim = 1 << (n - 1)
    shapes = [(dim,)] if n > 13 else [(dim,), (dim, 1), (dim, 3)]  # a block is at most 13 qubits
    for shape in shapes:
        base = rng.normal(size=shape) + 1j * rng.normal(size=shape)
        out, work = np.empty_like(base), tile_work(tf)
        for scale in (1e-150, 1e-12, 1.0, 1e12, 1e150):
            psi = scale * base
            got = apply_initial(tf, psi, out, work)
            assert got is out
            ref = _complex_csr_route(n, psi)
            assert ref.dtype == out.dtype and ref.shape == out.shape
            assert ref.tobytes() == out.tobytes()


@pytest.mark.parametrize("n", [14])
def test_apply_initial_rows_cover_state_with_whole_product_bits(n, monkeypatch):
    # tiled, the call returns an iterator of row slices of TILE_ENTRIES
    # rows, whose tiles together are the vector, each final when yielded,
    # with the bits of the untiled product
    monkeypatch.setattr(ss, "TILE_ENTRIES", 2048)
    tf = transverse_field_half(n)
    dim = 1 << (n - 1)
    rng = np.random.default_rng(n)
    psi = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    whole = apply_initial(tf, psi)
    out, rows = np.full_like(psi, np.nan), 2048
    tiles = apply_initial(tf, psi, out, tile_work(tf), True)
    assert not isinstance(tiles, np.ndarray)
    r0 = 0
    for t in tiles:
        assert t == slice(r0, r0 + rows)
        assert out[t].tobytes() == whole[t].tobytes()
        r0 += rows
    assert r0 == dim
    assert out.tobytes() == whole.tobytes()


def test_only_a_vector_is_tiled_and_a_block_is_at_most_13_qubits(monkeypatch):
    # beyond 13 qubits a vector is tiled in rows of TILE_ENTRIES, one tile
    # when it has no more entries; up to N = 13 a state is whole and is not
    # tiled, and beyond it a block is refused before anything is written
    monkeypatch.setattr(ss, "TILE_ENTRIES", 8192)
    for n, tiles in ((14, 1), (15, 2)):
        tf = transverse_field_half(n)
        psi = np.ones(1 << (n - 1), dtype=np.complex128)
        rows = apply_initial(tf, psi, np.empty_like(psi), tile_work(tf), True)
        assert [t.stop - t.start for t in rows] == [8192] * tiles
    tf = transverse_field_half(13)
    psi = np.ones(1 << 12, dtype=np.complex128)
    with pytest.raises(ValueError, match="one tile"):
        apply_initial(tf, psi, np.empty_like(psi), None, True)
    # a state is a block of block_columns instances up to 13 qubits, a vector beyond
    assert [ss.block_columns(n) for n in (2, 8, 12, 13, 14, 20)] == [4096, 64, 4, 2, 1, 1]
    assert ss.BLOCK_ENTRIES == 1 << (LOW_FLIP_BITS + 1)
    tf = transverse_field_half(14)
    for width in (1, 3):
        psi = np.ones((1 << 13, width), dtype=np.complex128)
        out = np.full_like(psi, 7.0)
        with pytest.raises(ValueError, match="a block is at most 13 qubits, got 14"):
            apply_initial(tf, psi, out)
        assert (out == 7.0).all()


class _CountingSparsetools:
    """Stands in for scipy's ``_sparsetools`` and lists each routine called."""

    def __init__(self, module):
        self.module, self.calls = module, []

    def __getattr__(self, name):
        routine = getattr(self.module, name)

        def counted(*args):
            self.calls.append(name)
            return routine(*args)

        return counted


@pytest.mark.parametrize("n", [2, 8, 13])
def test_apply_initial_is_one_compiled_call_up_to_n13(n, monkeypatch):
    # the whole driver is one CSR: one column runs the complex matvec, a
    # wider block the float64 matvecs, and nothing else of scipy is called
    tf = transverse_field_half(n)
    dim = 1 << (n - 1)
    proxy = _CountingSparsetools(ss._sparsetools)
    monkeypatch.setattr(ss, "_sparsetools", proxy)
    for shape, routine in (((dim,), "csr_matvec"), ((dim, 1), "csr_matvec"),
                           ((dim, 4), "csr_matvecs")):
        psi = np.ones(shape, dtype=np.complex128)
        proxy.calls.clear()
        apply_initial(tf, psi, np.empty_like(psi))
        assert proxy.calls == [routine]


@pytest.mark.parametrize("n", [2, 8, 13])
def test_apply_initial_rejects_bad_out_unwritten(n):
    # the compiled routine trusts its sizes: a wrong length, dtype or layout
    # of out is refused before anything is written
    tf = transverse_field_half(n)
    dim = 1 << (n - 1)
    for shape, out in (((dim,), np.full(dim - 1, 7.0 + 0j)),
                       ((dim,), np.full(dim + 1, 7.0 + 0j)),
                       ((dim,), np.full(dim, 7.0)),
                       ((dim,), np.full(dim, 7.0 + 0j, dtype=np.complex64)),
                       ((dim,), np.full(2 * dim, 7.0 + 0j)[::2]),
                       ((dim, 1), np.full(dim, 7.0 + 0j)),
                       ((dim, 3), np.full((dim, 3), 7.0))):
        memory = out if out.base is None else out.base
        before = memory.copy()
        with pytest.raises(ValueError):
            apply_initial(tf, np.ones(shape, dtype=np.complex128), out)
        assert np.array_equal(memory, before)
    psi = np.ones(dim, dtype=np.complex128)
    assert np.array_equal(apply_initial(tf, psi, np.empty_like(psi)), -n * psi)


@pytest.mark.parametrize("shape", [(64, 1), (4096, 6), (256, 2)])
def test_csr_product_is_scipy_product(shape):
    # csr_product calls scipy's private csr_matvecs on a zeroed output;
    # it must stay the routine behind mat @ x
    rows, width = shape
    mat = full_flip_matrix(rows.bit_length() - 1)
    rng = np.random.default_rng(rows)
    x = rng.normal(size=shape) + 1j * rng.normal(size=shape)
    out = np.full_like(x, np.nan)  # stale contents must not leak in
    csr_product(mat, x, out)
    ref = scipy_csr(mat) @ x.view(np.float64)
    assert ref.dtype == np.float64
    assert ref.tobytes() == out.view(np.float64).tobytes()
    assert np.array_equal(out, scipy_csr(mat).astype(np.complex128) @ x)


@pytest.mark.parametrize("shape", [(64,), (256, 256), (4096, 3)])
def test_csr_product_float64_is_scipy_product(shape):
    # a real block runs the same routine on the block itself (the Lindblad
    # pair's matrices), and a vector is one column
    rows = shape[0]
    mat = full_flip_matrix(rows.bit_length() - 1)
    x = np.random.default_rng(rows).normal(size=shape)
    out = np.full_like(x, np.nan)
    csr_product(mat, x, out)
    ref = scipy_csr(mat) @ x
    assert ref.dtype == np.float64
    assert ref.tobytes() == out.tobytes()


@pytest.mark.parametrize("x_dtype, out_dtype", [
    (np.complex128, np.float64),  # csr_matvecs would write twice out's size
    (np.float64, np.complex128),
    (np.float32, np.float32),
    (np.complex64, np.complex64),
])
def test_csr_product_rejects_other_dtypes(x_dtype, out_dtype):
    mat = full_flip_matrix(3)
    x, out = np.ones((8, 2), dtype=x_dtype), np.zeros((8, 2), dtype=out_dtype)
    with pytest.raises(ValueError):
        csr_product(mat, x, out)
    assert not out.any()


def test_sparsetools_loader_falls_back_to_scipy_package(tmp_path, monkeypatch):
    # a scipy without the extension file beside its package (an editable
    # build, say) is served through the package; the routine is the same
    from scipy.sparse import _sparsetools as package_module

    assert ss._load_sparsetools(str(tmp_path)) is package_module
    assert ss._sparsetools is not package_module
    mat = full_flip_matrix(6)
    x = np.random.default_rng(6).normal(size=(64, 3)) * (1 - 2j)
    from_file = csr_product(mat, x, np.empty_like(x)).copy()
    monkeypatch.setattr(ss, "_sparsetools", package_module)
    assert csr_product(mat, x, np.empty_like(x)).tobytes() == from_file.tobytes()


START_UP_CHECK = """
import sys


def loaded(*packages):
    return sorted(name for name in sys.modules if name.split(".")[0] in packages)


from annealsim import (AnnealParams, EnsembleConfig, LZParams, lz_propagate, propagate,
                       propagate_density, random_ising_half, run_ensemble)
assert propagate(AnnealParams(8, 2.0), random_ising_half(8, 1)).converged
assert propagate_density(AnnealParams(3, 2.0), random_ising_half(3, 1), 0.1).converged
assert lz_propagate(LZParams(1.0, 20.0)).converged
unused = loaded("scipy", "concurrent", "multiprocessing")
assert not unused, unused
result = run_ensemble(EnsembleConfig(8, 2.0, 6, 1), workers=2)
assert result.workers == 2 and result.failure_count == 0
assert "concurrent.futures" in sys.modules and "multiprocessing" in sys.modules
assert not loaded("scipy"), loaded("scipy")
"""


def test_simulator_loads_no_scipy_and_the_pool_on_first_use():
    # csr_product needs one compiled routine, found without running the
    # scipy package; the process pool's modules load with the first pool.
    # Either at start-up would more than double the import of this package
    src = Path(ss.__file__).resolve().parent.parent
    proc = subprocess.run([sys.executable, "-c", START_UP_CHECK], capture_output=True,
                          text=True, env={**os.environ, "PYTHONPATH": str(src)}, timeout=300)
    assert proc.returncode == 0, proc.stdout + proc.stderr


@pytest.mark.parametrize("n", [2, 8, 18])
def test_per_n_tables_are_read_only_and_change_no_instance(n):
    # the spin and pair tables are built on the first draw at each N and
    # shared after: a draw before they exist and one after agree bit for
    # bit, and a table refuses writes
    seeds = [0, 1, 2**63 + 5]
    ss._spin_tables.cache_clear()
    ss._pair_indices.cache_clear()
    first = ss.random_ising_block(n, seeds)
    tables = ss._spin_tables(n) + ss._pair_indices(n)
    again = ss.random_ising_block(n, seeds) + [ss.random_ising_half(n, s) for s in seeds]
    for a, b in zip(first * 2, again):
        assert a.half_diag.tobytes() == b.half_diag.tobytes()
        assert a.couplings.tobytes() == b.couplings.tobytes()
    rows, cols = np.triu_indices(n, k=1)
    assert np.array_equal(tables[2], rows) and np.array_equal(tables[3], cols)
    for table in tables:
        with pytest.raises(ValueError, match="read-only"):
            table[0] = 0


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
    gs = ground_space(half)
    assert list(gs) == [0] and gs.size == 1 and half.min() == -3


def test_ising_half_diag_mixed_couplings():
    # one frustrated pair; expected values from enumerating all 8 spin states
    j = np.zeros((3, 3), dtype=np.int64)
    j[1, 2] = 1
    j[0, 2] = 1
    j[0, 1] = -1
    half = ising_half_diag(3, j)
    assert np.array_equal(half, [-1, -1, -1, 3])
    gs = ground_space(half)
    assert list(gs) == [0, 1, 2] and gs.size == 3


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


def test_random_ising_takes_integers_only():
    # a float seed, however whole, would draw the seed it truncates to
    for args, name in (((6, 1.5), "seed"), ((6, 2.0), "seed"), ((4.0, 1), "n_qubits")):
        with pytest.raises(ValueError, match=f"{name} must be an integer"):
            random_ising_half(*args)
    # every qubit count goes through the one check: a whole float or a bool
    # is rejected by name, not by a TypeError from 1 << 7.0
    for call in (lambda: uniform_initial_state(8.0), lambda: transverse_field_half(8.0),
                 lambda: check_density_input(4.0, 0.1), lambda: transverse_field_half(True)):
        with pytest.raises(ValueError, match="n_qubits must be an integer"):
            call()
    with pytest.raises(ValueError, match="seed must be an integer"):
        random_ising_block(6, [1, 2.5])
    # a negative seed is rejected where it enters, not by numpy's SeedSequence
    with pytest.raises(ValueError, match="seed must be an integer >= 0, got -1"):
        random_ising_half(6, -1)
    big = random_ising_half(6, np.uint64(2**63 + 5))
    assert big.seed == 2**63 + 5 and type(big.seed) is int
    assert big.half_diag.tobytes() == random_ising_half(6, 2**63 + 5).half_diag.tobytes()


def test_ground_space_examples():
    diag = np.array([-1, 1])
    gs = ground_space(diag)
    assert list(gs) == [0] and diag.min() == -1 and gs.size == 1


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
