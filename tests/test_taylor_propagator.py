import dataclasses
import math
import tracemalloc

import numpy as np
import pytest

import annealsim.landau_zener as lz
import annealsim.spin_system as ss
import annealsim.taylor_propagator as tp
from annealsim.landau_zener import LZParams, lz_hamiltonian, lz_propagate
from annealsim.lindblad_propagator import propagate_density
from annealsim.spin_system import (
    IsingDiagonal,
    apply_initial,
    ground_space,
    lift_to_full,
    random_ising_half,
    uniform_initial_state,
)
from annealsim.taylor_propagator import (
    MAX_DRIFT,
    AnnealParams,
    Generator,
    SegmentSchedule,
    _ising_apply,
    _Problems,
    propagate,
    propagate_block,
    run_segments,
    settle,
    success_probability,
    taylor_segment,
    transverse_field_half,
)
from oracle import (
    coefficient_bound_closed,
    coefficient_bound_recurrence,
    dense_spectrum,
    power_rule_stop_index,
    rk4_schrodinger,
    segment_coefficient_norms,
)

# frozen from the RK4 oracle (steps=10^4): success probability at N=4, T=4, seed=1
P_RK4_N4_T4_SEED1 = 0.931189317008640

# paper benchmark: delta=1, T=20 two-level crossing, two segments
LZ_PSI_PAPER = np.array(
    [0.509629891598850 + 0.766898007985489j, -0.226356412675608 - 0.317659555887512j]
)


def test_segment_sigma_x_rotation(pair):
    # exp(-i pi/2 sigma_x) (1,0) = (0, -i)
    sx = np.array([[0.0, 1.0], [1.0, 0.0]])
    a = -1j * (np.pi / 2) * sx
    psi, terms, conv = taylor_segment(
        pair(a, np.zeros_like), np.array([1.0 + 0j, 0.0]), 1.0, 1e-14, 100
    )
    assert conv
    assert np.max(np.abs(psi - np.array([0.0, -1.0j]))) < 1e-14


def test_segment_zero_operators_identity(pair):
    psi_in = np.array([0.3 + 0.1j, -0.2, 0.5])
    psi, terms, conv = taylor_segment(
        pair(np.zeros_like, np.zeros_like), psi_in, 0.5, 1e-12, 50
    )
    assert conv and terms == 2
    assert np.array_equal(psi, psi_in)


def test_segment_landau_zener_paper_value(pair):
    # two half-interval segments reproduce the paper's psi(1) to 10 digits
    from annealsim.landau_zener import lz_ground_state, lz_hamiltonian

    t = 20.0
    h0 = lz_hamiltonian(1.0, 0.0)
    ramp = -1j * t * (lz_hamiltonian(1.0, 1.0) - h0)
    base = -1j * t * h0
    psi = lz_ground_state(1.0, 0.0)
    for k in range(2):
        shifted = base + (k * 0.5) * ramp
        psi, terms, conv = taylor_segment(
            pair(shifted, ramp), psi, 0.5, 1e-14, 500
        )
        assert conv and terms <= 350
    assert np.max(np.abs(psi - LZ_PSI_PAPER) / np.abs(LZ_PSI_PAPER)) < 1e-10


def test_segment_overflow_gives_nan(pair):
    # enormous generator on one full-length segment must hit inf before 500
    # terms; the overflow is a result (NaN, 0 terms, not converged), not a raise
    psi, terms, conv = taylor_segment(
        pair(lambda v: 1e150 * v, np.zeros_like), np.ones(2, dtype=complex), 1.0, 1e-12, 500
    )
    assert np.isnan(psi).all() and psi.shape == (2,)
    assert terms == 0 and conv is False


@pytest.mark.parametrize("shape", [(6,), (6, 3)])
def test_segment_shift_equals_folded_pair(shape, pair):
    # the kernel's shift of the pair (A_0, B) to s0 equals the pair
    # (A_0 + s0 B, B) folded by hand and run at s0 = 0, column by column
    rng = np.random.default_rng(11)
    a0, b = rng.normal(size=(2, 6, 6)) + 1j * rng.normal(size=(2, 6, 6))
    s0 = 0.3
    folded = a0 + s0 * b
    psi = rng.normal(size=shape) + 1j * rng.normal(size=shape)
    psi /= np.linalg.norm(psi, axis=0)
    c = -0.5j
    # a matrix pair acts on the rows, so it serves any set of columns
    got, t_got, ok_got = taylor_segment(pair(a0, b, c), psi, 0.5, 1e-13, 300, s0)
    ref, t_ref, ok_ref = taylor_segment(pair(folded, b, c), psi, 0.5, 1e-13, 300, 0.0)
    assert np.all(ok_got) and np.all(ok_ref)
    assert np.array_equal(t_got, t_ref)
    assert got.shape == shape and np.max(np.abs(got - ref)) < 1e-13


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_ising_bound_covers_every_instance(n):
    # ||H(s)|| <= N + N(N-1)/2 at s = 0, 1/2 and 1, dense, for any instance
    # of the family: the bound reads N alone, not the instance or T
    tf = transverse_field_half(n)
    for seed in range(6):
        hf = random_ising_half(n, seed)
        gen = _ising_apply(tf, hf.half_diag.astype(complex), 10.0)
        assert gen.bound == n + n * (n - 1) / 2 and gen.factor == -10j
        for s in (0.0, 0.5, 1.0):
            assert np.abs(dense_spectrum(n, hf, s).eigenvalues).max() <= gen.bound


@pytest.mark.parametrize("delta", [0.1, 1.0, 3.0])
def test_two_level_bound_covers_the_spectrum(delta, monkeypatch):
    gens = []

    def spy(gen, *args):
        gens.append(gen)
        return tp.run_segments(gen, *args)

    monkeypatch.setattr(lz, "run_segments", spy)
    assert lz_propagate(LZParams(delta, 5.0)).converged
    for s in np.linspace(0.0, 1.0, 11):
        assert np.abs(np.linalg.eigvalsh(lz_hamiltonian(delta, s))).max() <= gens[0].bound


def test_propagate_builds_its_generator_once(monkeypatch):
    built = []

    def spy(*args):
        built.append(args)
        return _ising_apply(*args)

    monkeypatch.setattr(tp, "_ising_apply", spy)
    res = propagate(AnnealParams(4, 2.0), random_ising_half(4, 1), SegmentSchedule(segments=3))
    assert res.converged and len(res.terms_per_segment) == 3
    assert len(built) == 1


@pytest.mark.parametrize("s0", [0.0, 0.5, 0.9])
@pytest.mark.parametrize("n", [4, 8, 12])
def test_specialized_segment_matches_generic(n, s0, pair):
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

    ref, t_ref, ok_ref = taylor_segment(pair(apply_const, apply_ramp), psi_in, step, 1e-13, 400)
    got, t_got, ok_got = taylor_segment(
        _ising_apply(tf, diag_f, t_anneal), psi_in, step, 1e-13, 400, s0
    )
    assert ok_ref and ok_got
    assert t_ref == t_got
    assert np.max(np.abs(ref - got)) < 1e-13


@pytest.mark.parametrize("scale", [4.0, 1e200])
def test_block_column_failure_leaves_neighbour_bitwise(scale, monkeypatch):
    # one bad problem in a block must not touch its neighbour: column 1's
    # generator is scaled until it runs out of terms (4) or overflows (1e200),
    # whole and with 16-entry tiles, in which the block pair hands its rows
    # over in 4 tiles
    for tile_entries in (None, 16):
        if tile_entries:
            monkeypatch.setattr(ss, "TILE_ENTRIES", tile_entries)
        n, t_anneal, step, s0, max_terms = 6, 3.0, 0.25, 0.5, 60
        tf = transverse_field_half(n)
        diag = random_ising_half(n, 4).half_diag.astype(complex)
        psi = uniform_initial_state(n)

        def one_column(d):
            return taylor_segment(_ising_apply(tf, d, t_anneal), psi, step, 1e-12, max_terms, s0)

        block_diag = np.stack([diag, scale * diag], axis=1)
        block_psi = np.repeat(psi[:, None], 2, axis=1)
        with np.errstate(over="ignore", invalid="ignore"):
            got, terms, ok = taylor_segment(
                _ising_apply(tf, block_diag, t_anneal), block_psi, step, 1e-12, max_terms, s0
            )
        ref, t_ref, ok_ref = one_column(diag)
        assert ok_ref and ok[0] and t_ref < max_terms
        assert terms[0] == t_ref
        assert np.array_equal(got[:, 0], ref)
        assert not ok[1]
        if scale > 1e100:
            assert np.isnan(got[:, 1]).all() and terms[1] == 0
            with np.errstate(over="ignore", invalid="ignore"):
                ref1, t_ref1, ok_ref1 = one_column(scale * diag)
            assert np.isnan(ref1).all() and t_ref1 == 0 and not ok_ref1
        else:
            ref1, t_ref1, ok_ref1 = one_column(scale * diag)
            assert not ok_ref1 and terms[1] == t_ref1 == max_terms
            assert np.array_equal(got[:, 1], ref1)


def test_all_columns_overflowing_end_the_run(monkeypatch):
    # every column overflows in segment 0 of 3: a NaN state with no terms
    # listed, NaN drifts and every flag False, and no later segment is run
    # (one kernel call from s0 = 0 in each of the two runs)
    n, t_anneal = 6, 180.0
    tf = transverse_field_half(n)
    diag = random_ising_half(n, 1).half_diag.astype(complex)
    block = np.stack([diag, 2 * diag], axis=1)
    starts = []

    def spy(*args, **kwargs):
        starts.append(args[-1])
        return taylor_segment(*args, **kwargs)

    monkeypatch.setattr(tp, "taylor_segment", spy)
    psi = np.repeat(uniform_initial_state(n)[:, None], 2, axis=1)
    with np.errstate(over="ignore", invalid="ignore"):
        state, terms, drift, ok = run_segments(
            _ising_apply(tf, block, t_anneal), psi, t_anneal, SegmentSchedule(segments=3)
        )
        results = propagate_block(
            AnnealParams(n, t_anneal), [random_ising_half(n, 1)] * 2, SegmentSchedule(segments=3)
        )
    assert starts == [0.0, 0.0]
    assert terms == [] and not np.any(ok) and np.isnan(state).all() and np.isnan(drift).all()
    assert all(r.terms_per_segment == [] and not r.converged for r in results)


def _spread_block(n):
    # 16 columns: 14 instances whose diagonals are scaled from 0.25 to 3, so
    # that they stop many terms apart, one scaled 8x, which runs out of its
    # 80 terms, and one scaled 1e200 (the failure test's), which overflows
    scales = list(np.geomspace(0.25, 3.0, 14)) + [8.0, 1e200]
    return [
        dataclasses.replace(hf, half_diag=scale * hf.half_diag)
        for hf, scale in ((random_ising_half(n, k), s) for k, s in enumerate(scales))
    ]


def test_compacted_block_columns_are_their_one_instance_runs(monkeypatch):
    # the block narrows to its live columns several times per segment (the
    # driver sees widths from 16 down to 1), yet every column's state,
    # terms and flag are those of its instance run alone, byte for byte
    params, schedule = AnnealParams(6, 3.0), SegmentSchedule(segments=4, max_terms=80)
    instances = _spread_block(6)
    widths = []

    def counted(tf, psi, out, work):
        widths.append(psi.shape[1])
        return apply_initial(tf, psi, out, work)

    monkeypatch.setattr(tp, "apply_initial", counted)
    with np.errstate(over="ignore", invalid="ignore"):
        block = propagate_block(params, instances, schedule)
    monkeypatch.undo()
    assert {16, 8, 4, 2, 1} <= set(widths)
    for k, (got, hf) in enumerate(zip(block, instances)):
        with np.errstate(over="ignore", invalid="ignore"):
            alone = propagate(params, hf, schedule)
        assert got.psi_final.tobytes() == alone.psi_final.tobytes(), k
        assert got.terms_per_segment == alone.terms_per_segment, k
        assert got.converged is alone.converged, k
        assert got.success_p == alone.success_p or np.isnan(alone.success_p)
    assert all(r.converged for r in block[:14])
    assert block[14].terms_per_segment[1:] == [80, 80, 80] and not block[14].converged
    assert block[15].terms_per_segment == [] and np.isnan(block[15].psi_final).all()


def test_block_pays_only_for_its_columns_own_terms(monkeypatch):
    # a column leaves the block at the term it stops: the widths of the
    # driver products sum to the columns' own term counts
    widths = []

    def counted(tf, psi, out, work):
        widths.append(psi.shape[1])
        return apply_initial(tf, psi, out, work)

    monkeypatch.setattr(tp, "apply_initial", counted)
    params, schedule = AnnealParams(6, 5.0), SegmentSchedule(segments=3)
    block = propagate_block(params, [random_ising_half(6, seed) for seed in (2, 5, 6)], schedule)
    assert min(widths) == 1
    assert sum(widths) == sum(sum(r.terms_per_segment) for r in block)


def test_block_without_narrow_is_rejected():
    psi = np.ones((4, 2), dtype=complex)
    gen = dataclasses.replace(_scalar_pair(np.ones(2), np.zeros(2), -1j), narrow=None)
    with pytest.raises(ValueError, match="narrow"):
        taylor_segment(gen, psi, 0.5)


def test_exact_norms_only_in_the_band_or_non_finite(monkeypatch):
    # a live column's block estimate decides its stop test unless it lies
    # within a factor NEAR of tol, or is not finite: only then is the exact
    # norm of its contiguous column taken: the only squares of a 1-D array,
    # as block terms and the drift weights pass 2-D views
    n, step, s0 = 6, 0.25, 0.5
    tf = transverse_field_half(n)
    diags = [random_ising_half(n, k).half_diag.astype(complex) for k in (2, 5, 6)]
    psi = np.repeat(uniform_initial_state(n)[:, None], 3, axis=1)
    exact, sums = [], []
    squares, norm = tp._Problems.squares, tp._Problems.norm

    def spy(v):
        sq = squares(v)
        if v.ndim == 1:
            exact.append(math.sqrt(sq))
        return sq

    monkeypatch.setattr(tp._Problems, "squares", staticmethod(spy))
    monkeypatch.setattr(tp._Problems, "norm", lambda self, sq: sums.append(sq.copy()) or norm(self, sq))

    def run(block, tol):
        sums.clear()
        return taylor_segment(_ising_apply(tf, block, 3.0), psi, step, tol, 200, s0)

    _, terms, ok = run(np.stack(diags, axis=1), 1e-12)
    assert ok.all() and len(set(terms)) == 3 and exact == []
    # a tol equal to column 0's estimate at its last term puts it in the band
    stop = terms[0]
    tol = step**stop * np.sqrt(sums[stop - 1][0])
    _, terms2, ok2 = run(np.stack(diags, axis=1), tol)
    assert len(exact) == 1 and abs(step**stop * exact[0] / tol - 1) < 1e-12
    assert terms2[0] in (stop, stop + 1)
    # an overflowing column is decided by its exact norm once, and no other
    exact.clear()
    with np.errstate(over="ignore", invalid="ignore"):
        _, terms3, ok3 = run(np.stack([diags[0], 1e200 * diags[1], diags[2]], axis=1), 1e-12)
    assert terms3[1] == 0 and not ok3[1] and terms3[0] == terms[0]
    assert len(exact) == 1 and not math.isfinite(exact[0])


def _scalar_pair(a, b, factor):
    # column j of A_0 is a[j] times the identity, and of B b[j] times it
    def apply(v, a_out, b_out):
        np.multiply(v, a, out=a_out)
        np.multiply(v, b, out=b_out)

    narrow = (lambda cols: _scalar_pair(a[cols], b[cols], factor)) if np.ndim(a) else None
    return Generator(apply, factor, _Problems.squares, math.inf, narrow)


def test_real_block_columns_are_their_one_column_runs():
    # a real state's column is one float column, not a complex pair; each
    # column of the narrowing block is its one-column run
    rng = np.random.default_rng(5)
    a, b = rng.normal(size=(2, 6)) * [[1], [0.3]] + [[1], [0]]
    psi = rng.normal(size=(8, 6))
    got, terms, ok = taylor_segment(_scalar_pair(a, b, -0.7), psi, 0.5, 1e-12, 200, 0.2)
    assert ok.all() and len(set(terms)) > 1
    for j in range(6):
        col = np.ascontiguousarray(psi[:, j])
        ref, t_ref, ok_ref = taylor_segment(_scalar_pair(a[j], b[j], -0.7), col, 0.5, 1e-12, 200, 0.2)
        assert got.dtype == ref.dtype == np.float64 and terms[j] == t_ref
        assert got[:, j].tobytes() == ref.tobytes()


def test_compaction_allocates_no_state_buffer():
    # a segment that narrows its 16 columns down to 1 peaks at seven states
    # (the four rotating buffers, the sum, the scratch and the returned
    # block, made when some columns stop before the rest) and the copy of
    # the columns that stop together, up to a few small index arrays: the
    # live columns move into the kernel's own buffers.  The pair's narrowing
    # allocates only its two length-k coefficient vectors
    dim, width = 4096, 16
    a, b = np.linspace(1.0, 24.0, width), np.full(width, 0.5)
    psi = np.ones((dim, width), dtype=complex) / np.sqrt(dim)
    narrowings = []

    def narrow(cols):
        narrowings.append(cols.size)
        return _scalar_pair(a[cols], b[cols], -1j)

    tracemalloc.start()
    try:
        gen = dataclasses.replace(_scalar_pair(a, b, -1j), narrow=narrow)
        narrowed, terms, ok = taylor_segment(gen, psi, 0.5, 1e-12, 200, 0.5)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert narrowings and min(narrowings) == 1
    assert peak < 7.5 * psi.nbytes
    assert ok.all() and len(set(terms)) > 8
    for j in range(width):
        col = np.ascontiguousarray(psi[:, j])
        ref, t_ref, ok_ref = taylor_segment(_scalar_pair(a[j], b[j], -1j), col, 0.5, 1e-12, 200, 0.5)
        assert narrowed[:, j].tobytes() == ref.tobytes() and terms[j] == t_ref and ok_ref


def test_kernel_narrows_only_the_generator_it_was_given():
    # every narrowing asks the generator the segment was given, with
    # ascending indices into the block it started with; a narrowed
    # generator is never narrowed again (its narrow is None here)
    a, b = np.linspace(1.0, 24.0, 16), np.full(16, 0.5)
    psi = np.ones((64, 16), dtype=complex) / 8
    asked = []

    def narrow(cols):
        asked.append(cols.copy())
        return dataclasses.replace(_scalar_pair(a[cols], b[cols], -1j), narrow=None)

    gen = dataclasses.replace(_scalar_pair(a, b, -1j), narrow=narrow)
    _, terms, ok = taylor_segment(gen, psi, 0.5, 1e-12, 200, 0.5)
    assert ok.all() and len(asked) > 2
    for wider, cols in zip([np.arange(16)] + asked, asked):
        assert np.all(np.diff(cols) > 0) and np.isin(cols, wider).all()
        assert cols.size < wider.size


def test_block_flags_only_the_drifting_column():
    # ceil(T) = 10 segments hold instance 1 at N=12 to a boundary drift of
    # 2e-8 but let instance 2 drift 8.8e-4 (|dP| 8.6e-4 against 40
    # segments): the block flags only the second, and each column is still
    # its one-instance run, drift included
    params = AnnealParams(12, 10.0)
    instances = [random_ising_half(12, 1), random_ising_half(12, 2)]
    block = propagate_block(params, instances)
    assert [r.converged for r in block] == [True, False]
    assert block[0].norm_drift < 1e-7 and block[1].norm_drift > 1e-4
    for got, hf in zip(block, instances):
        alone = propagate(params, hf)
        assert got.psi_final.tobytes() == alone.psi_final.tobytes()
        assert got.success_p == alone.success_p and got.norm_drift == alone.norm_drift
        assert got.converged is alone.converged


def _lz_one_segment(t_anneal):
    return lz_propagate(LZParams(1.0, t_anneal), SegmentSchedule(segments=1, max_terms=500))


# each case: the run and the name of its drift field
RULE_CASES = {
    # every segment stops, but the weight drifts past MAX_DRIFT
    "unitary-drift": (
        lambda: propagate(AnnealParams(12, 10.0), random_ising_half(12, 2)), "norm_drift"),
    "lindblad-drift": (  # the default 4 segments lose this run's trace: drift about 3
        lambda: propagate_density(
            AnnealParams(8, 4.0), random_ising_half(8, 3386250816931739734), 0.3),
        "trace_drift"),
    "lz-drift": (lambda: _lz_one_segment(20.0), "norm_drift"),  # |psi(1)|**2 is 5e-2 off
    # the one segment overflows
    "unitary-overflow": (
        lambda: propagate(AnnealParams(6, 60.0), random_ising_half(6, 1), SegmentSchedule(segments=1)),
        "norm_drift"),
    "lz-overflow": (lambda: _lz_one_segment(400.0), "norm_drift"),
    # the Lindblad overflow is test_propagate_density_overflow_reports_nan
}


@pytest.mark.parametrize("case", RULE_CASES)
def test_one_converged_rule(case):
    # unitary, Lindblad and two-level runs are judged alike: a run whose
    # segments all stopped is still not converged once its weight drifts
    # past MAX_DRIFT at a boundary, and it reports that drift; an overflow
    # gives NaN P, NaN drift, no terms and not converged
    run, field = RULE_CASES[case]
    res = run()
    drift = getattr(res, field)
    assert res.converged is False
    if case.endswith("drift"):
        assert 0 < min(res.terms_per_segment) and max(res.terms_per_segment) < 500
        assert drift > MAX_DRIFT and 0.0 <= res.success_p <= 1.0
    else:
        assert res.terms_per_segment == []
        assert math.isnan(res.success_p) and math.isnan(drift)


def test_block_matches_per_instance_beyond_low_bits():
    # at N=14 the driver product moves a low-bit axis and swaps high-bit
    # half-blocks; every column must still equal its instance run alone
    params, schedule = AnnealParams(14, 2.0), SegmentSchedule(segments=8)
    instances = [random_ising_half(14, seed) for seed in (3, 4)]
    block = propagate_block(params, instances, schedule)
    for got, hf in zip(block, instances):
        alone = propagate(params, hf, schedule)
        assert np.array_equal(got.psi_final, alone.psi_final)
        assert got.success_p == alone.success_p and got.norm_drift == alone.norm_drift
        assert got.terms_per_segment == alone.terms_per_segment
        assert got.converged is alone.converged is True


@pytest.mark.parametrize("n, seeds", [(14, (3, 4)), (8, (1, 2, 5, 6))])
def test_each_pair_holds_the_work_of_its_width(n, seeds, monkeypatch):
    # every pair, the full-width one and each narrowed to a block's live
    # columns, hands the driver product the low-bit work of its own width
    widths = []

    def counted(tf, psi, out, work, *rows):
        if n > 13:
            assert work.shape == ss.tile_work(tf, psi.shape).shape
        else:
            assert work is None
        widths.append(psi.shape[1])
        return apply_initial(tf, psi, out, work, *rows)

    params, schedule = AnnealParams(n, 2.0), SegmentSchedule(segments=8)
    instances = [random_ising_half(n, seed) for seed in seeds]
    alone = [propagate(params, hf, schedule).psi_final for hf in instances]
    monkeypatch.setattr(tp, "apply_initial", counted)
    block = propagate_block(params, instances, schedule)
    assert min(widths) < len(seeds)  # the block narrowed
    for got, ref in zip(block, alone):
        assert got.psi_final.tobytes() == ref.tobytes()


def test_one_driver_product_per_term(monkeypatch):
    # the kernel's cost invariant, and the module global through which the
    # driver product is traced
    calls = []

    def counted(*args):
        calls.append(args[4:])
        return apply_initial(*args)

    monkeypatch.setattr(tp, "apply_initial", counted)
    res = propagate(AnnealParams(6, 5.0), random_ising_half(6, 2))
    assert res.converged
    assert len(calls) == sum(res.terms_per_segment) == 182
    assert set(calls) == {()}
    # a tiled state: still one call per term, which returns the 4 tiles
    calls.clear()
    monkeypatch.setattr(ss, "TILE_ENTRIES", 2048)
    res = propagate(AnnealParams(14, 2.0), random_ising_half(14, 2), SegmentSchedule(segments=2))
    assert res.converged
    assert len(calls) == sum(res.terms_per_segment) and set(calls) == {(2048,)}


@pytest.mark.parametrize(
    "n, width, tile_entries, rows",
    [
        (14, 1, 2048, 2048),  # tiles within one run of the low bits
        (14, 1, 4096, 4096),  # a tile per run; the first high bit pairs tiles
        (15, 1, 8192, 8192),  # the first high bit inside a tile
        (15, 1, 2048, 2048),
        (14, 2, 8192, 4096),  # a block
        (14, 2, 4096, 2048),
    ],
)
def test_tiled_runs_are_bitwise_one_tile_runs(n, width, tile_entries, rows, monkeypatch):
    params, schedule = AnnealParams(n, 2.0), SegmentSchedule(segments=4)
    instances = [random_ising_half(n, seed) for seed in (3, 4)[:width]]
    shape = (1 << (n - 1), width) if width > 1 else (1 << (n - 1),)
    assert ss.tile_rows(shape) is None
    one_tile = propagate_block(params, instances, schedule)
    monkeypatch.setattr(ss, "TILE_ENTRIES", tile_entries)
    assert ss.tile_rows(shape) == rows
    tiled = propagate_block(params, instances, schedule)
    for got, ref in zip(tiled, one_tile):
        assert got.psi_final.tobytes() == ref.psi_final.tobytes()
        assert got.terms_per_segment == ref.terms_per_segment
        assert got.converged is ref.converged is True
        assert got.success_p == ref.success_p and got.norm_drift == ref.norm_drift


def test_two_tile_segment_is_bitwise_one_tile_segment(monkeypatch):
    # N=17 is the first size that tiles unpatched: two tiles of 2**15 rows.
    # The stop test's norms, summed over the tiles, match the whole ones
    n = 17
    tf = transverse_field_half(n)
    diag = random_ising_half(n, 5).half_diag.astype(complex)
    psi = uniform_initial_state(n)
    assert ss.tile_rows(psi.shape) == psi.size // 2
    sums, norm = [], tp._Problems.norm
    monkeypatch.setattr(tp._Problems, "norm", lambda self, sq: sums.append(sq) or norm(self, sq))
    got, terms, ok = taylor_segment(_ising_apply(tf, diag, 10.0), psi, 0.025, 1e-12, 500, 0.5)
    tiled_sums = sums[:]
    sums.clear()
    monkeypatch.setattr(ss, "TILE_ENTRIES", psi.size)
    ref, t_ref, ok_ref = taylor_segment(_ising_apply(tf, diag, 10.0), psi, 0.025, 1e-12, 500, 0.5)
    assert ok and ok_ref and terms == t_ref > 10
    assert got.tobytes() == ref.tobytes()
    assert len(tiled_sums) == len(sums) == terms
    assert np.allclose(tiled_sums, sums, rtol=1e-12, atol=0)


def _n14_pair():
    # the pair and start state of a T=10 anneal at N=14
    n = 14
    tf = transverse_field_half(n)
    diag = random_ising_half(n, 5).half_diag.astype(complex)
    return _ising_apply(tf, diag, 10.0), uniform_initial_state(n)


def _n14_segment(gen, psi, max_terms, tol=1e-12):
    # a segment of 1/10 from s0 = 0.5: about 80 terms at tol 1e-12
    return taylor_segment(gen, psi, 0.1, tol, max_terms, 0.5)


def test_terms_write_into_four_rotating_buffers():
    # the pair is handed the kernel's own buffers: over a whole segment its
    # outputs land in at most four distinct arrays, whatever the term count
    inner, psi = _n14_pair()
    seen, calls = set(), []

    def spy(v, a_out, b_out):
        seen.update((a_out.ctypes.data, b_out.ctypes.data))
        calls.append(1)
        inner.apply(v, a_out, b_out)

    _, terms, ok = _n14_segment(dataclasses.replace(inner, apply=spy), psi, 500)
    assert ok and terms >= 50 and len(calls) == terms
    assert len(seen) <= 4
    assert psi.ctypes.data not in seen


def test_segment_memory_does_not_grow_with_terms(monkeypatch):
    # a 200-term segment peaks at the memory of a 20-term one (no early stop),
    # up to a few small Python objects, and that peak is the kernel's five
    # buffers and the sum: six state vectors.  The pair works in two more
    # (tile_work), each with a spare column, allocated once with the pair
    for tile_entries in (None, 2048):
        if tile_entries:
            monkeypatch.setattr(ss, "TILE_ENTRIES", tile_entries)
        gen, psi = _n14_pair()
        tf, diag = transverse_field_half(14), psi.astype(complex)
        tracemalloc.start()
        try:
            _ising_apply(tf, diag, 10.0)
            build_peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert build_peak < 2 * psi.nbytes + 2 * 4096 * 16 + 16384
        peaks = []
        for max_terms in (20, 200):
            tracemalloc.start()
            try:
                _, terms, ok = _n14_segment(gen, psi, max_terms, -math.inf)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
            assert terms == max_terms and not ok
        assert abs(peaks[1] - peaks[0]) < 1024
        assert peaks[1] < 6 * psi.nbytes + 16384
        if tile_entries:  # the kernel's scratch is one tile
            assert peaks[1] < 5 * psi.nbytes + tile_entries * 16 + 16384


def test_propagate_no_evolution_limit():
    inst = random_ising_half(3, 5)
    res = propagate(AnnealParams(3, 1e-8), inst)
    gs = ground_space(inst.half_diag)
    assert res.converged
    assert abs(res.success_p - gs.size / 4.0) < 1e-7
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
    gs = np.array([0])
    assert success_probability(uniform_initial_state(2), gs) == pytest.approx(0.5)
    # all weight on the ground indices of a full-norm state
    psi = np.zeros(4, dtype=complex)
    psi[0] = np.sqrt(0.5)
    assert success_probability(psi, gs) == pytest.approx(1.0)


def test_success_probability_clamp_and_error():
    # the overlap is raw; settle absorbs the noise and fails the blow-up
    gs = np.array([0])
    psi = np.array([np.sqrt(0.5 * (1 + 4e-10)), 0.0], dtype=complex)
    assert settle(success_probability(psi, gs), True) == (1.0, True)
    psi_bad = np.array([1.0, 0.0], dtype=complex)
    p, ok = settle(success_probability(psi_bad, gs), True)
    assert p == pytest.approx(2.0) and ok is False


def test_clamp_probability_both_edges():
    assert settle(0.25, True) == (0.25, True)
    assert settle(1.0 + 5e-10, True) == (1.0, True)
    assert settle(-5e-10, True) == (0.0, True)
    assert settle(0.25, False) == (0.25, False)  # the verdict of the run stands
    for raw in (1.0 + 2e-9, -2e-9, float("nan")):
        p, ok = settle(raw, True)
        assert repr(p) == repr(raw) and ok is False  # returned raw, NaN included
    assert settle(-2e-9, True)[0] == -2e-9


def test_success_probability_global_phase_invariance():
    rng = np.random.default_rng(3)
    psi = rng.normal(size=8) + 1j * rng.normal(size=8)
    psi /= np.sqrt(2) * np.linalg.norm(psi)
    gs = np.array([1, 4])
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


def test_bound_recurrence_overflow_raises():
    # q_n = 1e3**n / n! passes 1e154 at n = 113: the diagnostic raises there
    # and never returns a non-finite value
    with pytest.raises(ArithmeticError, match="coefficient 113"):
        coefficient_bound_recurrence(1e3, 0.0, 2000)
    assert np.isfinite(coefficient_bound_recurrence(1e3, 0.0, 100).values).all()


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


def test_coefficient_norms_bounded_by_majorant(pair):
    # ||psi_n|| <= (p_n/n!) ||psi_0|| for random dense operator pairs
    rng = np.random.default_rng(42)
    for trial in range(50):
        dim = int(rng.integers(2, 17))
        a_mat = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
        b_mat = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
        a_mat *= rng.uniform(0.2, 1.5) / np.linalg.norm(a_mat, 2)
        b_mat *= rng.uniform(0.2, 1.5) / np.linalg.norm(b_mat, 2)
        psi0 = rng.normal(size=dim) + 1j * rng.normal(size=dim)
        norms = segment_coefficient_norms(pair(a_mat, b_mat), psi0, 60)
        bound = coefficient_bound_recurrence(
            np.linalg.norm(a_mat, 2), np.linalg.norm(b_mat, 2), 60
        )
        majorant = bound.values * np.linalg.norm(psi0)
        assert np.all(norms <= majorant * (1 + 1e-10))


def test_power_rule_diagnostic(pair):
    sx = np.array([[0.0, 1.0], [1.0, 0.0]])
    a = -1j * 2.0 * sx
    norms = segment_coefficient_norms(
        pair(a, np.zeros_like), np.array([1.0 + 0j, 0]), 60
    )
    idx = power_rule_stop_index(norms, 0.5)
    assert idx is not None
    assert norms[idx] ** (1.0 / idx) <= 0.5
    assert power_rule_stop_index(norms[:2], 1e-30) is None


def test_oracle_equivalence_spot_checks():
    # small-scale version of the acceptance sweep, one (N, T) cell each
    for n, t, seed in ((2, 1.0, 0), (3, 4.0, 7), (5, 10.0, 3)):
        inst = random_ising_half(n, seed)
        res = propagate(AnnealParams(n, t), inst)
        ref = rk4_schrodinger(n, inst, t)
        assert res.converged
        assert abs(res.success_p - ref.p) < 1e-6
        # the lifted state agrees too, up to the oracle's own error
        assert np.max(np.abs(lift_to_full(res.psi_final) - ref.final)) < 1e-6


def test_schedule_validation():
    with pytest.raises(ValueError):
        SegmentSchedule(segments=0)
    with pytest.raises(ValueError):
        SegmentSchedule(tol=2.0)
    with pytest.raises(ValueError):
        SegmentSchedule(max_terms=1)
    # an integer field takes no float, however whole: at construction, not in range()
    for name, value in (("segments", 2.5), ("segments", 4.0), ("max_terms", 50.5)):
        with pytest.raises(ValueError, match=f"{name} must be an integer"):
            SegmentSchedule(**{name: value})
    assert SegmentSchedule(segments=np.int64(3), max_terms=np.int32(50)).resolve(7.3) == 3
    with pytest.raises(ValueError, match="n_qubits must be an integer"):
        AnnealParams(4.0, 2.0)  # would fail inside propagate with a TypeError
    assert AnnealParams(np.int64(4), 2.0).n_qubits == 4
    assert SegmentSchedule().resolve(7.3) == 8
    assert SegmentSchedule(segments=3).resolve(7.3) == 3
    assert SegmentSchedule().resolve(1e-8) == 1
