import numpy as np
import pytest

import annealsim.taylor_propagator as tp
from annealsim.errors import TaylorOverflowError
from annealsim.spin_system import (
    GroundSpace,
    IsingDiagonal,
    apply_initial,
    ground_space,
    lift_to_full,
    random_ising_half,
    uniform_initial_state,
)
from annealsim.taylor_propagator import (
    AnnealParams,
    SegmentSchedule,
    _ising_apply,
    clamp_probability,
    coefficient_bound_closed,
    coefficient_bound_recurrence,
    power_rule_stop_index,
    propagate,
    segment_coefficient_norms,
    success_probability,
    taylor_segment,
    transverse_field_half,
)

# frozen from the RK4 oracle (steps=10^4): success probability at N=4, T=4, seed=1
P_RK4_N4_T4_SEED1 = 0.931189317008640

# paper benchmark: delta=1, T=20 two-level crossing, two segments
LZ_PSI_PAPER = np.array(
    [0.509629891598850 + 0.766898007985489j, -0.226356412675608 - 0.317659555887512j]
)


def test_segment_sigma_x_rotation():
    # exp(-i pi/2 sigma_x) (1,0) = (0, -i)
    sx = np.array([[0.0, 1.0], [1.0, 0.0]])
    a = -1j * (np.pi / 2) * sx
    psi, terms, conv = taylor_segment(
        lambda v: (a @ v, np.zeros_like(v)), 1.0, np.array([1.0 + 0j, 0.0]), 1.0, 1e-14, 100
    )
    assert conv
    assert np.max(np.abs(psi - np.array([0.0, -1.0j]))) < 1e-14


def test_segment_zero_operators_identity():
    zero = lambda v: np.zeros_like(v)
    psi_in = np.array([0.3 + 0.1j, -0.2, 0.5])
    psi, terms, conv = taylor_segment(lambda v: (zero(v), zero(v)), 1.0, psi_in, 0.5, 1e-12, 50)
    assert conv and terms == 2
    assert np.array_equal(psi, psi_in)


def test_segment_landau_zener_paper_value():
    # two half-interval segments reproduce the paper's psi(1) to 10 digits
    from annealsim.oracle import lz_ground_state, lz_hamiltonian

    t = 20.0
    h0 = lz_hamiltonian(1.0, 0.0)
    ramp = -1j * t * (lz_hamiltonian(1.0, 1.0) - h0)
    base = -1j * t * h0
    psi = lz_ground_state(1.0, 0.0)
    for k in range(2):
        shifted = base + (k * 0.5) * ramp
        psi, terms, conv = taylor_segment(
            lambda v: (shifted @ v, ramp @ v), 1.0, psi, 0.5, 1e-14, 500
        )
        assert conv and terms <= 350
    assert np.max(np.abs(psi - LZ_PSI_PAPER) / np.abs(LZ_PSI_PAPER)) < 1e-10


def test_segment_overflow_raises():
    # enormous generator on one full-length segment must hit inf before 500 terms
    big = lambda v: 1e150 * v
    zero = lambda v: np.zeros_like(v)
    with pytest.raises(TaylorOverflowError):
        taylor_segment(
            lambda v: (big(v), zero(v)), 1.0, np.ones(2, dtype=complex), 1.0, 1e-12, 500
        )


@pytest.mark.parametrize("s0", [0.0, 0.5, 0.9])
@pytest.mark.parametrize("n", [4, 8, 12])
def test_specialized_segment_matches_generic(n, s0):
    t_anneal = 3.0
    inst = random_ising_half(n, 9)
    tf = transverse_field_half(n)
    diag_f = inst.half_diag.astype(complex)
    # step chosen so that step * T * (||H_i|| + ||H_f||) = 4 at every size
    step = 4.0 / (t_anneal * (n + np.abs(inst.half_diag).max()))
    rng = np.random.default_rng(n)
    psi_in = uniform_initial_state(n) * np.exp(1j * rng.uniform(0, 2 * np.pi, 1 << (n - 1)))
    c = -1j * t_anneal

    def apply_const(v):
        return c * ((1 - s0) * apply_initial(tf, v) + s0 * diag_f * v)

    def apply_ramp(v):
        return c * (diag_f * v - apply_initial(tf, v))

    ref, t_ref, ok_ref = taylor_segment(
        lambda v: (apply_const(v), apply_ramp(v)), 1.0, psi_in, step, 1e-13, 400
    )
    got, t_got, ok_got = taylor_segment(_ising_apply(tf, diag_f, s0), c, psi_in, step, 1e-13, 400)
    assert ok_ref and ok_got
    assert t_ref == t_got
    assert np.max(np.abs(ref - got)) < 1e-13


def test_one_driver_product_per_term(monkeypatch):
    # the kernel's cost invariant, and the module global through which the
    # driver product is traced
    calls = []

    def counted(tf, psi):
        calls.append(1)
        return apply_initial(tf, psi)

    monkeypatch.setattr(tp, "apply_initial", counted)
    res = propagate(AnnealParams(6, 5.0), random_ising_half(6, 2))
    assert res.converged
    assert len(calls) == sum(res.terms_per_segment) == 182


def test_propagate_no_evolution_limit():
    inst = random_ising_half(3, 5)
    res = propagate(AnnealParams(3, 1e-8), inst)
    gs = ground_space(inst)
    assert res.converged
    assert abs(res.success_p - gs.degeneracy / 4.0) < 1e-7
    assert np.max(np.abs(res.psi_final - uniform_initial_state(3))) < 1e-7


def test_propagate_stationary_flat_diagonal():
    # H_f = -N * identity keeps the uniform state stationary up to phase e^{iTN}
    n, t = 4, 4.0
    flat = IsingDiagonal(n, np.full(1 << (n - 1), -n, dtype=np.int64), 0,
                         np.zeros((n, n), dtype=np.int64))
    res = propagate(AnnealParams(n, t), flat)
    expected = np.exp(1j * t * n) * uniform_initial_state(n)
    assert res.converged
    assert abs(res.success_p - 1.0) < 1e-12
    assert np.max(np.abs(res.psi_final - expected)) < 1e-12


def test_propagate_matches_rk4_frozen_value():
    res = propagate(AnnealParams(4, 4.0), random_ising_half(4, 1))
    assert res.converged
    assert abs(res.success_p - P_RK4_N4_T4_SEED1) < 1e-6


def test_propagate_segment_count_robustness():
    for n, t in ((3, 4.0), (5, 7.0), (6, 10.0)):
        inst = random_ising_half(n, 21)
        params = AnnealParams(n, t)
        p1 = propagate(params, inst, SegmentSchedule()).success_p
        p4 = propagate(params, inst, SegmentSchedule(segments=4 * int(np.ceil(t)))).success_p
        assert abs(p1 - p4) < 1e-8


def test_propagate_norm_preservation_small_systems():
    for n in (2, 3, 4):
        for seed in range(5):
            res = propagate(AnnealParams(n, 4.0), random_ising_half(n, seed))
            assert res.converged
            assert res.norm_drift < 10 * 1e-12


def test_success_probability_examples():
    gs = GroundSpace(np.array([0]), -1, 1)
    assert success_probability(uniform_initial_state(2), gs) == pytest.approx(0.5)
    # all weight on the ground indices of a full-norm state
    psi = np.zeros(4, dtype=complex)
    psi[0] = np.sqrt(0.5)
    assert success_probability(psi, gs) == pytest.approx(1.0)


def test_success_probability_clamp_and_error():
    gs = GroundSpace(np.array([0]), -1, 1)
    psi = np.array([np.sqrt(0.5 * (1 + 4e-10)), 0.0], dtype=complex)
    assert success_probability(psi, gs) == 1.0
    psi_bad = np.array([1.0, 0.0], dtype=complex)
    assert success_probability(psi_bad, gs) == pytest.approx(2.0)


def test_clamp_probability_both_edges():
    assert clamp_probability(0.25) == 0.25
    assert clamp_probability(1.0 + 5e-10) == 1.0
    assert clamp_probability(-5e-10) == 0.0
    for raw in (1.0 + 2e-9, -2e-9, float("nan")):
        assert repr(clamp_probability(raw)) == repr(raw)  # returned raw, NaN included
    assert clamp_probability(-2e-9) == -2e-9


def test_success_probability_global_phase_invariance():
    rng = np.random.default_rng(3)
    psi = rng.normal(size=8) + 1j * rng.normal(size=8)
    psi /= np.sqrt(2) * np.linalg.norm(psi)
    gs = GroundSpace(np.array([1, 4]), 0, 2)
    base = success_probability(psi, gs)
    for theta in (0.3, 1.7, -2.2):
        assert success_probability(np.exp(1j * theta) * psi, gs) == pytest.approx(base, rel=1e-14)


def test_bound_recurrence_small_values():
    # p_2 = a^2 + b, p_3 = a^3 + 3ab
    seq = coefficient_bound_recurrence(1.0, 1.0, 3)
    assert seq.values[2] * 2 == pytest.approx(2.0)  # p_2 = 2
    assert seq.values[3] * 6 == pytest.approx(4.0)  # p_3 = 4


def test_bound_recurrence_pure_exponential():
    import math

    a = 1.7
    seq = coefficient_bound_recurrence(a, 0.0, 20)
    expected = np.array([a**n / math.factorial(n) for n in range(21)])
    assert np.allclose(seq.values, expected, rtol=1e-13)


def test_bound_closed_form_examples():
    assert coefficient_bound_closed(1.0, 1.0, 0) == 1.0
    assert coefficient_bound_closed(1.0, 1.0, 2) == pytest.approx(1.0)
    assert coefficient_bound_closed(1.0, 1.0, 3) == pytest.approx(4.0 / 6.0)


def test_bound_closed_equals_recurrence():
    rng = np.random.default_rng(17)
    for _ in range(20):
        a = float(rng.uniform(0.05, 10.0))
        b = float(rng.uniform(0.0, 10.0))
        seq = coefficient_bound_recurrence(a, b, 40)
        for n in (2, 6, 17, 40):
            closed = coefficient_bound_closed(a, b, n)
            assert closed == pytest.approx(seq.values[n], rel=1e-12)


def test_bound_decay_rate():
    # (p_n/n!)^(1/n) <= a (1 + b/(2a^2))^(1/2) / (floor(n/3)!)^(1/n)
    import math

    for a, b in ((1.0, 1.0), (3.0, 5.0), (0.5, 2.0)):
        seq = coefficient_bound_recurrence(a, b, 100)
        prefactor = a * (1 + b / (2 * a * a)) ** 0.5
        for n in range(1, 101):
            lhs = seq.values[n] ** (1.0 / n)
            rhs = prefactor / math.exp(math.lgamma(n // 3 + 1) / n)
            assert lhs <= rhs * (1 + 1e-12)
        assert seq.values[100] < seq.values[10]  # heading to zero


def test_coefficient_norms_bounded_by_majorant():
    # ||psi_n|| <= (p_n/n!) ||psi_0|| for random dense operator pairs
    rng = np.random.default_rng(42)
    for trial in range(50):
        dim = int(rng.integers(2, 17))
        a_mat = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
        b_mat = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
        a_mat *= rng.uniform(0.2, 1.5) / np.linalg.norm(a_mat, 2)
        b_mat *= rng.uniform(0.2, 1.5) / np.linalg.norm(b_mat, 2)
        psi0 = rng.normal(size=dim) + 1j * rng.normal(size=dim)
        norms = segment_coefficient_norms(
            lambda v: a_mat @ v, lambda v: b_mat @ v, psi0, 60
        )
        bound = coefficient_bound_recurrence(
            np.linalg.norm(a_mat, 2), np.linalg.norm(b_mat, 2), 60
        )
        majorant = bound.values * np.linalg.norm(psi0)
        assert np.all(norms <= majorant * (1 + 1e-10))


def test_power_rule_diagnostic():
    sx = np.array([[0.0, 1.0], [1.0, 0.0]])
    a = -1j * 2.0 * sx
    norms = segment_coefficient_norms(
        lambda v: a @ v, lambda v: np.zeros_like(v), np.array([1.0 + 0j, 0]), 60
    )
    idx = power_rule_stop_index(norms, 0.5)
    assert idx is not None
    assert norms[idx] ** (1.0 / idx) <= 0.5
    assert power_rule_stop_index(norms[:2], 1e-30) is None


def test_oracle_equivalence_spot_checks():
    # small-scale version of the acceptance sweep, one (N, T) cell each
    from annealsim.oracle import rk4_schrodinger

    for n, t, seed in ((2, 1.0, 0), (3, 4.0, 7), (5, 10.0, 3)):
        inst = random_ising_half(n, seed)
        res = propagate(AnnealParams(n, t), inst)
        psi_rk = rk4_schrodinger(n, inst, t)
        full = inst.full_diag()
        gs_full = np.flatnonzero(full == full.min())
        p_rk = float(np.sum(np.abs(psi_rk[gs_full]) ** 2))
        assert res.converged
        assert abs(res.success_p - p_rk) < 1e-6
        # the lifted state agrees too, up to the oracle's own error
        assert np.max(np.abs(lift_to_full(res.psi_final) - psi_rk)) < 1e-6


def test_schedule_validation():
    with pytest.raises(ValueError):
        SegmentSchedule(segments=0)
    with pytest.raises(ValueError):
        SegmentSchedule(tol=2.0)
    with pytest.raises(ValueError):
        SegmentSchedule(max_terms=1)
    assert SegmentSchedule().resolve(7.3) == 8
    assert SegmentSchedule(segments=3).resolve(7.3) == 3
    assert SegmentSchedule().resolve(1e-8) == 1
