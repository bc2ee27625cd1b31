"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines as they complete.  The heavyweight entries (oracle-equivalence sweep,
full-size histogram) keep the whole suite within a desk-scale time budget.
"""

import json
import time

import numpy as np

from annealsim.cli import main as cli_main
from annealsim.ensemble import EnsembleConfig, instance_seed, run_ensemble, scaling_sweep, sweep_T
from annealsim.landau_zener import LZParams, lz_propagate
from annealsim.lindblad_propagator import propagate_density
from annealsim.spin_system import lift_to_full, random_ising_half
from annealsim.taylor_propagator import AnnealParams, SegmentSchedule, propagate
from oracle import (
    LZ_P_TWO_SEGMENTS,
    SuperopContext,
    coefficient_bound_closed,
    coefficient_bound_recurrence,
    lindblad_segment,
    rk4_schrodinger_batch,
    segment_coefficient_norms,
)

LZ_PSI_PAPER = np.array(
    [0.509629891598850 + 0.766898007985489j, -0.226356412675608 - 0.317659555887512j]
)


def report(num, name, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    print(f"[acceptance] criterion {num:02d} {status} {name} {detail}")
    assert ok, f"criterion {num} ({name}) failed: {detail}"


def count_local_maxima(values, include_edges=True):
    v = np.asarray(values, dtype=float)
    n = len(v)
    count = 0
    for i in range(n):
        left_ok = i == 0 or v[i] > v[i - 1]
        right_ok = i == n - 1 or v[i] > v[i + 1]
        if i in (0, n - 1):
            if include_edges and left_ok and right_ok:
                count += 1
        elif left_ok and right_ok:
            count += 1
    return count


def test_criterion_01_landau_zener_benchmark():
    t0 = time.perf_counter()
    res = lz_propagate(LZParams(1.0, 20.0), SegmentSchedule(segments=2, tol=1e-14))
    elapsed = time.perf_counter() - t0
    # the paper's two-segment run, digit for digit (the converged value
    # differs by 7e-11: see oracle.LZ_P_CONVERGED)
    p_ok = abs(res.success_p - LZ_P_TWO_SEGMENTS) < 1e-9
    psi_rel = np.max(np.abs(res.psi_final - LZ_PSI_PAPER) / np.abs(LZ_PSI_PAPER))
    psi_ok = psi_rel < 1e-9  # 10 significant digits
    ok = res.converged and p_ok and psi_ok and elapsed < 1.0
    report(1, "landau-zener two-segment paper digits", ok,
           f"|dP|={abs(res.success_p - LZ_P_TWO_SEGMENTS):.2e} psi_rel={psi_rel:.2e} "
           f"runtime={elapsed:.3f}s")


def test_criterion_02_single_segment_pathology():
    res = lz_propagate(LZParams(1.0, 20.0), SegmentSchedule(segments=1, tol=1e-14, max_terms=100))
    magnitude = float(np.linalg.norm(res.psi_final))
    ok = (not res.converged) and magnitude > 1e6
    report(2, "single-segment pathology", ok,
           f"|psi|={magnitude:.3e} converged={res.converged}")


def test_criterion_03_oracle_equivalence():
    t0 = time.perf_counter()
    worst = 0.0
    worst_estimate = 0.0  # of the RK4 reference's own error in P
    checked = 0
    total_steps = 0
    for n in range(2, 7):
        seeds = [instance_seed(1000 + n, k) for k in range(100)]
        instances = [random_ising_half(n, s) for s in seeds]
        diags = np.stack([inst.full_diag() for inst in instances])
        for t_anneal in (1.0, 4.0, 10.0):
            ref = rk4_schrodinger_batch(n, diags, t_anneal)
            worst_estimate = max(worst_estimate, float(ref.error.max()))
            total_steps += ref.steps + ref.steps // 2  # the fine pass and the half-step one
            for i, inst in enumerate(instances):
                res = propagate(AnnealParams(n, t_anneal), inst)
                if not res.converged:
                    continue
                worst = max(worst, abs(res.success_p - ref.p[i]))
                checked += 1
    elapsed = time.perf_counter() - t0
    ok = worst < 1e-6 and worst_estimate <= 1e-8 and elapsed < 600.0
    report(3, "oracle equivalence sweep", ok,
           f"worst|dP|={worst:.2e} over {checked} runs, worst RK4 estimate={worst_estimate:.2e} "
           f"over {total_steps} RK4 steps, runtime={elapsed:.0f}s")


def test_criterion_04_norm_preservation():
    cfg = EnsembleConfig(8, 4.0, runs=1000, master_seed=2024)
    res = run_ensemble(cfg)
    max_drift = max(r.norm_drift for r in res.records)
    ok = res.failure_count == 0 and max_drift < 1e-8
    report(4, "norm preservation at scale", ok,
           f"max|2||psi||^2-1|={max_drift:.2e} over 1000 instances")


def test_criterion_05_bound_suite(pair):
    rng = np.random.default_rng(2718)
    bound_ok = True
    for _ in range(50):
        dim = int(rng.integers(2, 17))
        a_mat = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
        b_mat = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
        a_mat *= rng.uniform(0.2, 2.0) / np.linalg.norm(a_mat, 2)
        b_mat *= rng.uniform(0.2, 2.0) / np.linalg.norm(b_mat, 2)
        psi0 = rng.normal(size=dim) + 1j * rng.normal(size=dim)
        norms = segment_coefficient_norms(pair(a_mat, b_mat), psi0, 60)
        majorant = coefficient_bound_recurrence(
            np.linalg.norm(a_mat, 2), np.linalg.norm(b_mat, 2), 60
        ).values * np.linalg.norm(psi0)
        bound_ok = bound_ok and bool(np.all(norms <= majorant * (1 + 1e-10)))
    closed_ok = True
    worst_rel = 0.0
    for _ in range(25):
        a = float(rng.uniform(0.05, 10.0))
        b = float(rng.uniform(1e-3, 10.0))
        seq = coefficient_bound_recurrence(a, b, 40)
        for n in range(41):
            rel = abs(coefficient_bound_closed(a, b, n) - seq.values[n]) / seq.values[n]
            worst_rel = max(worst_rel, rel)
        closed_ok = closed_ok and worst_rel < 1e-12
    ok = bound_ok and closed_ok
    report(5, "coefficient bound suite", ok,
           f"majorant holds={bound_ok} closed-vs-recurrence worst rel={worst_rel:.2e}")


def test_criterion_06_lindblad_consistency():
    # closed evolution reduces to the pure-state propagator
    hs_worst = 0.0
    for n in (2, 3, 4):
        inst = random_ising_half(n, 11)
        dens = propagate_density(AnnealParams(n, 4.0), inst, 0.0)
        pure = propagate(AnnealParams(n, 4.0), inst)
        full = lift_to_full(pure.psi_final)
        hs_worst = max(hs_worst, float(np.linalg.norm(dens.rho_final - np.outer(full, full.conj()))))
    trace_drift = propagate_density(AnnealParams(4, 4.0), random_ising_half(4, 1), 0.1).trace_drift
    # amplitude damping closed form
    lind = np.array([[0, 1], [0, 0]], dtype=complex)
    ctx = SuperopContext.create(np.zeros((2, 2), complex), np.zeros((2, 2), complex), lind, 1.0)
    rho1, _, conv = lindblad_segment(ctx, np.diag([0.0 + 0j, 1.0]), 1.0, 1e-14, 200)
    damp_err = float(np.max(np.abs(rho1 - np.diag([1 - np.exp(-1.0), np.exp(-1.0)]))))
    ok = hs_worst < 1e-8 and trace_drift < 1e-8 and conv and damp_err < 1e-8
    report(6, "lindblad consistency", ok,
           f"HS(L=0)={hs_worst:.2e} trace_drift={trace_drift:.2e} damping_err={damp_err:.2e}")


def test_criterion_07_dissipative_nonmonotonicity():
    t_values = list(range(2, 21, 2))
    seed = 1
    curve_l = sweep_T(8, seed, [float(t) for t in t_values], mode="lindblad", l_scale=0.1)
    curve_u = sweep_T(8, seed, [2.0, 20.0])
    has_decrease = bool(np.any(np.diff(curve_l.p_values) < 0))
    unitary_rises = curve_u.p_values[1] > curve_u.p_values[0]
    ok = has_decrease and unitary_rises and not np.any(np.isnan(curve_l.p_values))
    report(7, "dissipative P(T) non-monotone", ok,
           f"lindblad decrease={has_decrease} unitary P(20)>P(2)={unitary_rises}")


def test_criterion_08_histogram_multimodal():
    cfg = EnsembleConfig(8, 10.0, runs=10_000, master_seed=7)
    res = run_ensemble(cfg)
    maxima = count_local_maxima(res.histogram)
    ok = maxima >= 2
    report(8, "histogram multi-modality", ok,
           f"local maxima={maxima} failures={res.failure_count}")


def test_criterion_09_lz_oscillation():
    t_values = np.linspace(20.0, 50.0, 61)
    ps = np.array([lz_propagate(LZParams(1.0, float(t))).success_p for t in t_values])
    in_range = bool(np.all((ps > 0.99) & (ps <= 1.0)))
    maxima = count_local_maxima(ps, include_edges=False)
    diffs = np.diff(ps)
    nonmono = bool(np.any(diffs < 0) and np.any(diffs > 0))
    ok = in_range and maxima >= 3 and nonmono
    report(9, "benchmark oscillation sweep", ok,
           f"in(0.99,1]={in_range} maxima={maxima} nonmonotone={nonmono}")


def test_criterion_10_cli_determinism(tmp_path):
    out1 = tmp_path / "workers1.json"
    out8 = tmp_path / "workers8.json"
    base = ["ensemble", "--qubits", "4", "--time", "4", "--runs", "100",
            "--seed", "31415", "--out"]
    assert cli_main(base + [str(out1), "--workers", "1"]) == 0
    assert cli_main(base + [str(out8), "--workers", "8"]) == 0

    def canonical(path):
        record = json.loads(path.read_text())
        record.pop("timing")
        return json.dumps(record, sort_keys=True).encode()

    ok = canonical(out1) == canonical(out8)
    report(10, "CLI determinism across workers", ok,
           f"byte-identical modulo timing={ok}")


def test_criterion_11_scaling_sweep():
    res = scaling_sweep([8, 10, 12, 14], 10.0, runs_per_n=3)
    slope_ok = res.fit_slope is not None and res.fit_slope > 0
    superlinear = res.mean_seconds[-1] / res.mean_seconds[0] > 14 / 8
    ok = slope_ok and superlinear
    times = " ".join(f"N={n}:{s:.4f}s" for n, s in zip(res.n_values, res.mean_seconds))
    report(11, "wall-time scaling", ok, f"slope={res.fit_slope:.3f} {times}")
