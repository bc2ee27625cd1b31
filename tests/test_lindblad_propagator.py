import math
import tracemalloc

import numpy as np
import pytest

import annealsim.lindblad_propagator as lp
from annealsim.errors import CapacityError
from annealsim.lindblad_propagator import (
    _density_pair,
    build_energy_lowering_op,
    propagate_density,
)
from annealsim.spin_system import (
    IsingDiagonal,
    full_flip_matrix,
    ground_space,
    ising_half_diag,
    lift_to_full,
    random_ising_half,
    uniform_initial_state,
)
from annealsim.taylor_propagator import (
    AnnealParams, SegmentSchedule, _ising_apply, propagate, taylor_segment, transverse_field_half,
)
from oracle import (
    SuperopContext,
    apply_liouvillian_const,
    apply_liouvillian_ramp,
    energy_lowering_matrix,
    lindblad_segment,
    scipy_csr,
)


def test_lowering_op_two_levels():
    op = energy_lowering_matrix(np.array([0, 1]))
    assert np.array_equal(op, [[0, 1], [0, 0]])


def test_lowering_op_sorted_superdiagonal():
    diag = np.array([3, -1, 0, 2])
    op = energy_lowering_matrix(diag)
    order = np.argsort(diag, kind="stable")
    sorted_mat = op[np.ix_(order, order)]
    expected = np.zeros((4, 4))
    expected[[0, 1, 2], [1, 2, 3]] = np.sqrt([1, 2, 3])
    assert np.allclose(sorted_mat, expected)


def test_lowering_op_degenerate_ordering():
    # N=2 ferromagnet: full diagonal (-1, 1, 1, -1); energy-sorted order with
    # index tie-break is (0, 3, 1, 2).  Verified by direct multiplication.
    diag = np.array([-1, 1, 1, -1])
    op = energy_lowering_matrix(diag)
    order = np.argsort(diag, kind="stable")
    assert list(order) == [0, 3, 1, 2]
    sorted_mat = op[np.ix_(order, order)]
    assert np.allclose(np.diag(sorted_mat, k=1), np.sqrt([1, 2, 3]))
    ada = op.conj().T @ op
    # number operator: diagonal, spectrum {0, 1, 2, 3}
    assert np.allclose(ada, np.diag(np.diag(ada)))
    assert np.allclose(sorted(np.linalg.eigvalsh(ada).real), [0, 1, 2, 3], atol=1e-12)
    aad = op @ op.conj().T
    assert np.allclose(np.diag(aad).real, [1, 3, 0, 2])


def _ferromagnet_full_diag(n):
    j = np.zeros((n, n), dtype=np.int64)
    j[np.triu_indices(n, k=1)] = 1
    return lift_to_full(ising_half_diag(n, j))


@pytest.mark.parametrize(
    "diag",
    [
        np.random.default_rng(3).integers(-6, 7, size=64),  # N=6, with ties
        _ferromagnet_full_diag(2),
        _ferromagnet_full_diag(4),
    ],
)
def test_lowering_op_rows_are_the_dense_operator(diag):
    # row i of the dense ladder holds w[i] at column src[i] and nothing
    # else; the empty top row is weight 0 at column 0
    src, w = build_energy_lowering_op(diag, 0.3)
    dense = energy_lowering_matrix(diag, 0.3)
    rows = np.zeros_like(dense)
    rows[np.arange(diag.size), src] = w
    assert np.array_equal(rows, dense)
    top = np.argsort(diag, kind="stable")[-1]
    assert src[top] == 0 and w[top] == 0


def test_liouvillian_const_commuting_diagonals():
    ctx = SuperopContext.create(np.diag([1.0 + 0j, 2.0]), np.zeros((2, 2), complex), None, 1.0)
    rho = np.diag([0.25 + 0j, 0.75])
    assert np.allclose(apply_liouvillian_const(rho, ctx), 0.0)


def test_liouvillian_const_dissipator_hand_value():
    lind = np.array([[0, 1], [0, 0]], dtype=complex)
    ctx = SuperopContext.create(np.zeros((2, 2), complex), np.zeros((2, 2), complex), lind, 1.0)
    rho = np.diag([0.0 + 0j, 1.0])
    out = apply_liouvillian_const(rho, ctx)
    assert np.allclose(out, np.diag([1.0, -1.0]))


def test_liouvillian_const_traceless():
    rng = np.random.default_rng(5)
    dim = 4
    herm = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    rho = herm + herm.conj().T
    a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    lind = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    ctx = SuperopContext.create(a - a.conj().T, np.zeros((dim, dim), complex), lind, 2.0)
    assert abs(np.trace(apply_liouvillian_const(rho, ctx))) < 1e-12


def test_liouvillian_ramp_cases():
    dim = 4
    ctx = SuperopContext.create(
        np.zeros((dim, dim), complex), np.diag([1.0 + 0j, 2, 3, 4]), None, 1.0
    )
    assert np.allclose(apply_liouvillian_ramp(np.eye(dim) / dim, ctx), 0.0)
    assert np.allclose(apply_liouvillian_ramp(np.diag([0.1 + 0j, 0.2, 0.3, 0.4]), ctx), 0.0)
    rng = np.random.default_rng(2)
    b = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    rho = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    ctx2 = SuperopContext.create(np.zeros((2, 2), complex), b, None, 1.0)
    assert np.allclose(apply_liouvillian_ramp(rho, ctx2), b @ rho - rho @ b)


def test_segment_amplitude_damping_closed_form():
    lind = np.array([[0, 1], [0, 0]], dtype=complex)
    ctx = SuperopContext.create(np.zeros((2, 2), complex), np.zeros((2, 2), complex), lind, 1.0)
    rho0 = np.diag([0.0 + 0j, 1.0])
    rho1, terms, conv = lindblad_segment(ctx, rho0, 1.0, 1e-14, 200)
    assert conv
    expected = np.diag([1.0 - np.exp(-1.0), np.exp(-1.0)])
    assert np.max(np.abs(rho1 - expected)) < 1e-12
    assert abs(np.trace(rho1).real - 1.0) < 10 * 1e-14


def test_segment_closed_evolution_matches_pure_state():
    # L = 0 reduces the master equation to the von Neumann equation
    for n in (3, 4):
        inst = random_ising_half(n, 11)
        t_anneal = 2.0
        res = propagate(AnnealParams(n, t_anneal), inst, SegmentSchedule(segments=2))
        hi = scipy_csr(full_flip_matrix(n)).toarray().astype(complex)
        fd = inst.full_diag().astype(float)
        c = -1j * t_anneal
        ramp = c * (np.diag(fd) - hi)
        psi0 = lift_to_full(uniform_initial_state(n))
        rho = np.outer(psi0, psi0.conj())
        for k in range(2):
            s0 = k * 0.5
            ctx = SuperopContext.create(
                c * ((1 - s0) * hi + s0 * np.diag(fd)), ramp, None, t_anneal
            )
            rho, _, conv = lindblad_segment(ctx, rho, 0.5, 1e-13, 400)
            assert conv
        full = lift_to_full(res.psi_final)
        assert np.linalg.norm(rho - np.outer(full, full.conj())) < 1e-8


@pytest.mark.parametrize("l_scale", [0.0, 0.1, 0.3])
@pytest.mark.parametrize("n", [3, 5])
def test_fast_segment_matches_generic(n, l_scale):
    # the pair runs M = Re rho + Im rho with the real factor T; the oracle
    # runs the complex rho with factor -iT
    t_anneal, s0 = 2.0, 0.25
    inst = random_ising_half(n, 3)
    fd = inst.full_diag()
    hi = scipy_csr(full_flip_matrix(n)).toarray().astype(complex)
    c = -1j * t_anneal
    lop = energy_lowering_matrix(fd, l_scale) if l_scale else None
    ctx = SuperopContext.create(
        c * ((1 - s0) * hi + s0 * np.diag(fd.astype(float))),
        c * (np.diag(fd.astype(float)) - hi),
        lop,
        t_anneal,
    )
    psi0 = lift_to_full(uniform_initial_state(n))
    rho0 = np.outer(psi0, psi0.conj())
    ref, t_ref, _ = lindblad_segment(ctx, rho0, 0.5, 1e-13, 300)
    m0 = np.outer(psi0.real, psi0.real)
    flat, t_got, _ = taylor_segment(
        _density_pair(n, fd, l_scale, t_anneal), m0.ravel(), 0.5, 1e-13, 300, s0
    )
    m = flat.reshape(m0.shape)
    assert t_ref == t_got
    assert np.linalg.norm(ref - ((m + m.T) / 2 + 0.5j * (m - m.T))) < 1e-13


@pytest.mark.parametrize("l_scale", [0.0, 0.1, 0.3])
def test_density_bound_adds_the_dissipator_norm(l_scale):
    # the density generator's bound is the Ising one plus ||L^T L||, the top
    # eigenvalue of the dense ladder's L^T L
    n = 5
    hf = random_ising_half(n, 4)
    gen = _density_pair(n, hf.full_diag(), l_scale, 4.0)
    ising = _ising_apply(transverse_field_half(n), hf.half_diag.astype(complex), 4.0)
    lind = energy_lowering_matrix(hf.full_diag(), l_scale)
    top = np.linalg.eigvalsh(lind.conj().T @ lind).max()
    assert gen.factor == 4.0
    assert gen.bound - ising.bound == pytest.approx(top, rel=1e-12, abs=1e-12)


@pytest.mark.parametrize("l_scale", [0.0, 0.1])
def test_density_pair_allocates_nothing(l_scale):
    # the pair writes into the kernel's buffers and its own two work
    # matrices: no temporary of M's size, nor a numpy iteration buffer
    n = 6
    apply = _density_pair(n, random_ising_half(n, 2).full_diag(), l_scale, 1.0).apply
    m = np.random.default_rng(5).normal(size=4**n)
    a_out, b_out = np.empty_like(m), np.empty_like(m)
    apply(m, a_out, b_out)
    tracemalloc.start()
    try:
        apply(m, a_out, b_out)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < m.nbytes // 16


def _ferromagnet(n):
    # every J = +1: a degenerate spectrum, so the ladder's tie-break orders
    # long runs of equal energies
    couplings = np.triu(np.ones((n, n), dtype=np.int64), k=1)
    return IsingDiagonal(n, ising_half_diag(n, couplings), 0, couplings)


@pytest.mark.parametrize("kind, l_scale", [("random", 0.0), ("random", 0.3), ("ferromagnet", 0.1)])
def test_propagate_density_is_exactly_hermitian(kind, l_scale):
    # rho is built Hermitian from M = Re rho + Im rho (the random instance
    # at l_scale 0.1 is test_propagate_density_invariants_dissipative)
    inst = _ferromagnet(4) if kind == "ferromagnet" else random_ising_half(4, 1)
    res = propagate_density(AnnealParams(4, 4.0), inst, l_scale)
    assert res.converged
    assert res.rho_final.dtype == np.complex128
    assert np.array_equal(res.rho_final, res.rho_final.conj().T)


@pytest.mark.parametrize("l_scale", [0.0, 0.3])
def test_density_pair_is_the_transposed_commutators(l_scale):
    # A_0 M = [H_i, M]^T + D[M] and B M = [H_f - H_i, M]^T, against dense
    # matrices, on a real M that is not symmetric
    n = 5
    dim = 2**n
    fd = random_ising_half(n, 4).full_diag()
    m = np.random.default_rng(9).normal(size=(dim, dim))
    a_out, b_out = np.empty(dim * dim), np.empty(dim * dim)
    _density_pair(n, fd, l_scale, 1.0).apply(m.ravel(), a_out, b_out)
    hi = scipy_csr(full_flip_matrix(n)).toarray()
    ramp = np.diag(fd.astype(float)) - hi
    lind = energy_lowering_matrix(fd, l_scale).real
    lind_sq = lind.T @ lind
    dissipator = lind @ m @ lind.T - 0.5 * (lind_sq @ m + m @ lind_sq)
    assert np.allclose(a_out.reshape(dim, dim), (hi @ m - m @ hi).T + dissipator,
                       rtol=0, atol=1e-12)
    assert np.allclose(b_out.reshape(dim, dim), (ramp @ m - m @ ramp).T, rtol=0, atol=1e-12)


def test_propagate_density_builds_its_generator_once(monkeypatch):
    built = []

    def spy(*args):
        built.append(args)
        return _density_pair(*args)

    monkeypatch.setattr(lp, "_density_pair", spy)
    params, schedule = AnnealParams(3, 2.0), SegmentSchedule(segments=3)
    res = propagate_density(params, random_ising_half(3, 1), 0.1, schedule)
    assert res.converged and len(res.terms_per_segment) == 3
    assert len(built) == 1


def test_propagate_density_closed_matches_unitary():
    inst = random_ising_half(4, 1)
    params = AnnealParams(4, 4.0)
    dens = propagate_density(params, inst, 0.0)
    pure = propagate(params, inst)
    assert dens.converged
    assert abs(dens.success_p - pure.success_p) < 1e-6
    full = lift_to_full(pure.psi_final)
    assert np.linalg.norm(dens.rho_final - np.outer(full, full.conj())) < 1e-8


@pytest.mark.parametrize("n, seed, half", [(4, 1, [3, 5, 6]), (5, 1, [12, 13]), (6, 3, [19, 28])])
def test_both_state_spaces_read_one_ground_space(n, seed, half):
    # the full-space ground space is the half one and its mirrors, so a
    # closed density and a half vector read P off the same states
    inst = random_ising_half(n, seed)
    assert list(ground_space(inst.half_diag)) == half
    mirrors = [(1 << n) - 1 - i for i in half]
    assert list(ground_space(inst.full_diag())) == sorted(half + mirrors)
    params = AnnealParams(n, 4.0)
    assert abs(propagate_density(params, inst, 0.0).success_p
               - propagate(params, inst).success_p) < 1e-10


def test_propagate_density_invariants_dissipative():
    res = propagate_density(AnnealParams(4, 4.0), random_ising_half(4, 1), 0.1)
    assert res.converged
    assert res.trace_drift < 1e-8
    assert np.array_equal(res.rho_final, res.rho_final.conj().T)
    assert 0.0 <= res.success_p <= 1.0
    # approximate positivity under truncation
    eigs = np.linalg.eigvalsh(res.rho_final)
    assert eigs.min() > -1e-8


def test_propagate_density_trace_tight_small_system():
    res = propagate_density(AnnealParams(2, 1.0), random_ising_half(2, 0), 0.1)
    assert res.trace_drift < 10 * 1e-12


def test_propagate_density_capacity():
    with pytest.raises(CapacityError):
        propagate_density(AnnealParams(12, 2.0), random_ising_half(12, 0), 0.1)


def test_superoperator_norm_estimates():
    # ||G_const|| <= 2||A||_HS + 2T||L||_HS^2 and ||G_ramp|| <= 2||B||_HS,
    # with the operator norms estimated by power iteration on G^dag G.
    rng = np.random.default_rng(7)
    dim = 4
    t_anneal = 1.5
    for _ in range(5):
        a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
        b = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
        lind = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
        ctx = SuperopContext.create(a, b, lind, t_anneal)
        lind_sq = lind.conj().T @ lind

        def const_adjoint(y):
            out = a.conj().T @ y - y @ a.conj().T
            out += t_anneal * (
                lind.conj().T @ y @ lind - 0.5 * (lind_sq @ y + y @ lind_sq)
            )
            return out

        def ramp_adjoint(y):
            return b.conj().T @ y - y @ b.conj().T

        def op_norm(fwd, adj):
            x = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
            x /= np.linalg.norm(x)
            sigma = 0.0
            for _ in range(200):
                y = adj(fwd(x))
                sigma = np.linalg.norm(y) ** 0.5
                x = y / np.linalg.norm(y)
            return sigma

        norm_const = op_norm(lambda x: apply_liouvillian_const(x, ctx), const_adjoint)
        norm_ramp = op_norm(lambda x: apply_liouvillian_ramp(x, ctx), ramp_adjoint)
        bound_const = 2 * np.linalg.norm(a) + 2 * t_anneal * np.linalg.norm(lind) ** 2
        bound_ramp = 2 * np.linalg.norm(b)
        assert norm_const <= bound_const * (1 + 1e-8)
        assert norm_ramp <= bound_ramp * (1 + 1e-8)


def test_diminishing_lindblad_approaches_unitary():
    inst_seed = 1
    for t_anneal in (4.0, 10.0):
        params = AnnealParams(4, t_anneal)
        inst = random_ising_half(4, inst_seed)
        p0 = propagate(params, inst).success_p
        p_small = propagate_density(params, inst, 0.02).success_p
        p_large = propagate_density(params, inst, 0.1).success_p
        assert abs(p_small - p0) < abs(p_large - p0)


def test_propagate_density_overflow_reports_nan():
    # one segment this long overflows: a NaN density, flagged, not raised
    res = propagate_density(AnnealParams(3, 80.0), random_ising_half(3, 1), 0.1,
                            SegmentSchedule(segments=1))
    assert not res.converged
    assert res.terms_per_segment == []
    assert math.isnan(res.success_p)
    assert math.isnan(res.trace_drift)


def test_propagate_density_rejects_negative_l_scale():
    with pytest.raises(ValueError):
        propagate_density(AnnealParams(3, 2.0), random_ising_half(3, 1), -0.1)

