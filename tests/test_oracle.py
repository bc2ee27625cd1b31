import inspect

import numpy as np
import pytest

from annealsim import (
    cli, ensemble, landau_zener, lindblad_propagator, spin_system, taylor_propagator,
)
from annealsim.errors import CapacityError
from annealsim.landau_zener import LZParams, lz_ground_state, lz_propagate
from annealsim.spin_system import (
    IsingDiagonal,
    full_flip_matrix,
    lift_to_full,
    random_ising_half,
    uniform_initial_state,
)
from annealsim.taylor_propagator import SegmentSchedule
import oracle
from oracle import (
    LZ_P_CONVERGED,
    LZ_P_TWO_SEGMENTS,
    SuperopContext,
    dense_spectrum,
    energy_lowering_matrix,
    lindblad_segment,
    lz_gap,
    rk4_landau_zener,
    rk4_lindblad,
    rk4_schrodinger,
    driver_matrix,
    rk4_schrodinger_batch,
    scipy_csr,
)


@pytest.mark.parametrize("n", [1, 2, 3, 5])
def test_driver_from_its_definition_is_the_flip_matrix(n):
    # the references build H_i themselves; the library's builder must agree
    assert np.array_equal(driver_matrix(n), scipy_csr(full_flip_matrix(n)).toarray())


def test_rk4_stationary_state():
    # H_f = -N*I: the uniform state only picks up the phase e^{iTN}
    n, t = 3, 2.0
    flat = IsingDiagonal(n, np.full(1 << (n - 1), -n, dtype=np.int64), 0,
                         np.zeros((n, n), dtype=np.int64))
    psi1 = rk4_schrodinger(n, flat, t).final
    expected = np.exp(1j * t * n) * lift_to_full(uniform_initial_state(n))
    assert np.max(np.abs(psi1 - expected)) < 1e-8


def test_rk4_unitarity():
    psi1 = rk4_schrodinger(4, random_ising_half(4, 9), 4.0).final
    assert abs(np.linalg.norm(psi1) - 1.0) < 1e-8


def test_rk4_landau_zener_matches_paper():
    # the 1e-10 check needs more steps than the default count, whose own
    # estimate is 2.7e-9 here; at 8000 steps the estimate is 1.5e-13
    ref = rk4_landau_zener(LZParams(1.0, 20.0), 8_000)
    assert ref.error < 1e-12
    assert abs(ref.p - LZ_P_TWO_SEGMENTS) < 1e-8
    # the paper's own RK figure, the converged value, is reproduced even more closely
    assert abs(ref.p - LZ_P_CONVERGED) < 1e-10


def test_rk4_convergence_order():
    ref = rk4_landau_zener(LZParams(1.0, 20.0), 64_000).final
    e_coarse = np.linalg.norm(rk4_landau_zener(LZParams(1.0, 20.0), 2_000).final - ref)
    e_fine = np.linalg.norm(rk4_landau_zener(LZParams(1.0, 20.0), 4_000).final - ref)
    ratio = e_coarse / e_fine
    assert 8.0 < ratio < 32.0  # fourth order: ~16x per halving


def test_rk4_lindblad_amplitude_damping():
    lind = np.array([[0, 1], [0, 0]], dtype=complex)
    ctx = SuperopContext.create(np.zeros((2, 2), complex), np.zeros((2, 2), complex), lind, 1.0)
    rho1 = rk4_lindblad(ctx, np.diag([0.0 + 0j, 1.0])).final
    assert np.max(np.abs(rho1 - np.diag([1 - np.exp(-1.0), np.exp(-1.0)]))) < 1e-8


def test_rk4_lindblad_closed_matches_schrodinger():
    n, t = 3, 2.0
    inst = random_ising_half(n, 4)
    hi = scipy_csr(full_flip_matrix(n)).toarray().astype(complex)
    fd = inst.full_diag().astype(float)
    c = -1j * t
    ctx = SuperopContext.create(c * hi, c * (np.diag(fd) - hi), None, t)
    psi0 = lift_to_full(uniform_initial_state(n))
    rho1 = rk4_lindblad(ctx, np.outer(psi0, psi0.conj())).final
    psi1 = rk4_schrodinger(n, inst, t).final
    assert np.linalg.norm(rho1 - np.outer(psi1, psi1.conj())) < 1e-8
    assert abs(np.trace(rho1).real - 1.0) < 1e-10


def test_rk4_lindblad_cross_checks_taylor_recurrence():
    n, t = 4, 2.0
    inst = random_ising_half(n, 1)
    hi = scipy_csr(full_flip_matrix(n)).toarray().astype(complex)
    fd = inst.full_diag().astype(float)
    c = -1j * t
    lop = energy_lowering_matrix(inst.full_diag(), 0.1)
    ramp = c * (np.diag(fd) - hi)
    psi0 = lift_to_full(uniform_initial_state(n))
    rho0 = np.outer(psi0, psi0.conj())

    ctx_global = SuperopContext.create(c * hi, ramp, lop, t)
    rho_rk = rk4_lindblad(ctx_global, rho0).final

    rho = rho0
    for k in range(2):
        s0 = k * 0.5
        ctx = SuperopContext.create(
            c * ((1 - s0) * hi + s0 * np.diag(fd)), ramp, lop, t
        )
        rho, _, conv = lindblad_segment(ctx, rho, 0.5, 1e-13, 400)
        assert conv
    assert np.linalg.norm(rho_rk - rho) < 1e-6


def test_dense_spectrum_driver_end():
    sp = dense_spectrum(4, random_ising_half(4, 3), 0.0)
    assert abs(sp.eigenvalues[0] + 4) < 1e-12
    assert abs(sp.gap - 2.0) < 1e-12


def test_dense_spectrum_problem_end():
    inst = random_ising_half(4, 3)
    sp = dense_spectrum(4, inst, 1.0)
    assert np.allclose(sp.eigenvalues, np.sort(inst.full_diag()))
    distinct = np.unique(sp.eigenvalues)
    assert np.allclose(np.diff(distinct) % 2.0, 0.0)


def test_dense_spectrum_degenerate_gap_closes():
    # the full-space gap collapses towards s=1 when H_f is degenerate
    inst = random_ising_half(4, 3)
    assert np.sum(inst.full_diag() == inst.full_diag().min()) >= 2
    mid = dense_spectrum(4, inst, 0.5).gap
    late = dense_spectrum(4, inst, 0.999).gap
    assert late < mid
    assert late < 0.05


def test_dense_spectrum_capacity():
    with pytest.raises(CapacityError):
        dense_spectrum(12, random_ising_half(12, 0), 0.5)


def test_lz_gap_values():
    assert lz_gap(1.0, 0.5) == pytest.approx(2.0)
    assert lz_gap(1.0, 0.0) == pytest.approx(2.0 * np.sqrt(2.0))
    s_grid = np.linspace(0, 1, 1001)
    gaps = [lz_gap(1.0, s) for s in s_grid]
    assert s_grid[int(np.argmin(gaps))] == pytest.approx(0.5)


def test_lz_ground_state_phase_convention():
    g0 = lz_ground_state(1.0, 0.0)
    pivot = int(np.argmax(np.abs(g0)))
    assert g0[pivot].imag == 0.0 and g0[pivot].real > 0.0
    assert abs(np.linalg.norm(g0) - 1.0) < 1e-14


def test_lz_propagate_paper_benchmark():
    res = lz_propagate(LZParams(1.0, 20.0), SegmentSchedule(segments=2, tol=1e-14))
    assert res.converged
    assert abs(res.success_p - LZ_P_TWO_SEGMENTS) < 1e-9


@pytest.mark.parametrize("segments", [4, 8, 32])
def test_lz_propagate_converges_to_paper_rk_value(segments):
    # the two-segment digits carry 7e-11 of roundoff; more segments agree
    # with the converged value to 1e-14
    res = lz_propagate(LZParams(1.0, 20.0), SegmentSchedule(segments=segments, tol=1e-15))
    assert res.converged
    assert abs(res.success_p - LZ_P_CONVERGED) < 1e-13


def test_lz_propagate_single_segment_pathology():
    res = lz_propagate(LZParams(1.0, 20.0), SegmentSchedule(segments=1, tol=1e-14, max_terms=100))
    assert not res.converged
    assert np.linalg.norm(res.psi_final) > 1e6


def test_lz_single_segment_norm_pollution_is_observable():
    # given the full budget the one-segment series does stop, but rounding in
    # the huge intermediate terms leaves a visibly wrong norm; nothing
    # renormalises it away, and the norm drift flags the run
    res = lz_propagate(LZParams(1.0, 20.0), SegmentSchedule(segments=1, tol=1e-14, max_terms=500))
    assert not res.converged
    assert abs(np.linalg.norm(res.psi_final) - 1.0) > 1e-3
    clean = lz_propagate(LZParams(1.0, 20.0), SegmentSchedule(segments=2, tol=1e-14))
    assert abs(np.linalg.norm(clean.psi_final) - 1.0) < 1e-9


def test_lz_params_validation():
    with pytest.raises(ValueError):
        LZParams(-1.0, 20.0)


def test_lz_default_schedule_keeps_norm_within_drift_bound():
    for t in np.linspace(20.0, 50.0, 13):
        res = lz_propagate(LZParams(1.0, float(t)))
        assert res.converged
        assert abs(np.linalg.norm(res.psi_final) ** 2 - 1.0) < 1e-10


def _code_names(code):
    """Global and attribute names that ``code`` and the functions nested in it read."""
    names = set(code.co_names)
    for const in code.co_consts:
        if hasattr(const, "co_names"):
            names |= _code_names(const)
    return names


def test_rk4_references_use_no_kernel_function():
    kernel = {"taylor_segment", "run_segments", "propagate", "propagate_block",
              "propagate_density"}
    for name in dir(oracle):
        if name.startswith(("rk4", "_rk4")) and callable(getattr(oracle, name)):
            assert not _code_names(getattr(oracle, name).__code__) & kernel, name


def test_only_the_kernel_reads_the_drift_bound():
    # every evolution is judged by run_segments: no other module reads
    # MAX_DRIFT, in any function or at import
    for module in (lindblad_propagator, landau_zener, ensemble, cli):
        code = compile(inspect.getsource(module), module.__file__, "exec")
        assert "MAX_DRIFT" not in _code_names(code), module.__name__
    assert "MAX_DRIFT" in _code_names(taylor_propagator.run_segments.__code__)


def test_only_spin_system_states_the_shape_rule():
    # a state's shape is asked of spin_system (block_columns, and the tiled
    # flag of apply_initial): no other module names the constants of the
    # rule or passes a tile size, in any function or at import
    rule = {"LOW_FLIP_BITS", "TILE_ENTRIES", "BLOCK_ENTRIES", "tile_rows"}
    for module in (taylor_propagator, ensemble, lindblad_propagator, landau_zener, cli):
        code = compile(inspect.getsource(module), module.__file__, "exec")
        assert not _code_names(code) & rule, module.__name__
    assert not hasattr(spin_system, "tile_rows")


def test_each_ising_pair_owns_its_low_bit_work():
    # the low-bit work of the driver product is made by the pair that uses
    # it: no other function of the kernel reads tile_work,
    # and spin_system keeps no helper to lay a wider work out again
    code = compile(inspect.getsource(taylor_propagator), taylor_propagator.__file__, "exec")
    readers = {c.co_name for c in code.co_consts
               if hasattr(c, "co_names") and "tile_work" in _code_names(c)}
    assert readers == {"_ising_apply"}
    assert not hasattr(spin_system, "_front")
    # and the kernel takes no private name from spin_system
    private = [name for name in vars(taylor_propagator)
               if name.startswith("_") and not name.startswith("__")]
    assert not [name for name in private
                if getattr(spin_system, name, None) is getattr(taylor_propagator, name)]


def test_rk4_estimate_bounds_its_error():
    # the step-doubling estimate of a default run bounds its distance to a
    # run at 8x the steps (test_rk4_convergence_order checks the order)
    inst = random_ising_half(3, 2)
    ref = rk4_schrodinger(3, inst, 4.0)
    best = rk4_schrodinger(3, inst, 4.0, steps=8 * ref.steps)
    assert 0.0 < abs(ref.p - best.p) <= ref.error
    with pytest.raises(ValueError):
        rk4_schrodinger_batch(3, inst.full_diag()[None, :], 4.0, steps=3)
