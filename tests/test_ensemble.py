import json
import math

import numpy as np
import pytest

from annealsim.ensemble import (
    EnsembleConfig,
    histogram,
    instance_seed,
    resolve_workers,
    run_ensemble,
    run_record,
    scaling_sweep,
    sweep_T,
)
from annealsim.spin_system import ground_space, random_ising_half
from annealsim.taylor_propagator import AnnealParams, SegmentSchedule, propagate


def test_instance_seed_is_pure_and_distinct():
    assert instance_seed(42, 0) == instance_seed(42, 0)
    seeds = {instance_seed(42, k) for k in range(1000)}
    assert len(seeds) == 1000
    assert instance_seed(42, 1) != instance_seed(43, 1)


def test_single_run_no_evolution_limit():
    cfg = EnsembleConfig(2, 1e-8, runs=1, master_seed=5)
    res = run_ensemble(cfg, workers=1)
    inst = random_ising_half(2, instance_seed(5, 0))
    d_half = ground_space(inst).degeneracy
    assert res.probabilities.shape == (1,)
    assert abs(res.probabilities[0] - d_half / 2.0) < 1e-7


def test_ensemble_determinism_repeat_and_workers():
    cfg = EnsembleConfig(3, 2.0, runs=24, master_seed=99)
    a = run_ensemble(cfg, workers=1)
    b = run_ensemble(cfg, workers=1)
    c = run_ensemble(cfg, workers=2)
    assert a.records == b.records == c.records
    assert np.array_equal(a.probabilities, c.probabilities)
    assert np.array_equal(a.histogram, c.histogram)


def test_ensemble_failure_policy():
    cases = [
        # max_terms=2 cannot converge at this T
        (3, 6.0, SegmentSchedule(max_terms=2), False),
        # one segment this long overflows (TaylorOverflowError) in every instance
        (6, 60.0, SegmentSchedule(segments=1), True),
    ]
    for n_qubits, t_anneal, schedule, overflows in cases:
        # every instance must be counted as a failure, with its seed, and the
        # histogram stays empty; no failure aborts the ensemble
        cfg = EnsembleConfig(n_qubits, t_anneal, runs=5, master_seed=1, schedule=schedule)
        res = run_ensemble(cfg, workers=1)
        assert res.failure_count == 5
        assert res.probabilities.size == 0
        assert res.histogram.sum() == 0
        assert len(res.records) == 5
        assert [r.seed for r in res.failures] == [instance_seed(1, k) for k in range(5)]
        assert all(math.isnan(r.success_p) for r in res.failures) == overflows
        record = run_record(cfg, res, 0.0)
        assert len(record["failures"]) == 5
        assert record["summary"]["mean_p"] is None
        json.dumps(record, allow_nan=False)  # NaN fields are written as null
        # repr compares NaN fields too, which == on the records would not
        assert repr(run_ensemble(cfg, workers=2).records) == repr(res.records)


def test_ensemble_histogram_consistency():
    cfg = EnsembleConfig(4, 2.0, runs=50, master_seed=3, bins=8)
    res = run_ensemble(cfg, workers=2)
    assert res.histogram.sum() == len(res.probabilities)
    assert np.all(res.probabilities >= 0) and np.all(res.probabilities <= 1)


def test_histogram_edges():
    counts = histogram(np.array([0.0, 0.999, 1.0]), 2)
    assert list(counts) == [1, 2]


def test_histogram_empty():
    assert list(histogram(np.array([]), 4)) == [0, 0, 0, 0]


def test_histogram_rejects_out_of_range():
    with pytest.raises(ValueError):
        histogram(np.array([0.5, 1.2]), 4)
    with pytest.raises(ValueError):
        histogram(np.array([-0.1]), 4)


def test_histogram_uniform_statistics():
    rng = np.random.default_rng(0)
    ps = rng.uniform(0.0, 1.0, size=10_000)
    counts = histogram(ps, 32)
    expected = 10_000 / 32
    sigma = math.sqrt(10_000 * (1 / 32) * (31 / 32))
    assert np.all(np.abs(counts - expected) < 5 * sigma)
    assert counts.sum() == 10_000


def test_sweep_t_single_point_matches_propagate():
    curve = sweep_T(4, 1, [4.0])
    direct = propagate(AnnealParams(4, 4.0), random_ising_half(4, 1))
    assert curve.p_values.shape == (1,)
    assert curve.p_values[0] == direct.success_p


def test_sweep_t_unitary_adiabatic_trend():
    curve = sweep_T(4, 1, list(range(1, 21)))
    assert curve.p_values[-1] > curve.p_values[0]


def test_sweep_t_lindblad_has_decrease():
    curve = sweep_T(4, 1, list(range(1, 21)), mode="lindblad", l_scale=0.1)
    diffs = np.diff(curve.p_values)
    assert np.any(diffs < 0)


def test_scaling_sweep_single_n_no_fit():
    res = scaling_sweep([4], 2.0, runs_per_n=2)
    assert res.fit_slope is None
    assert len(res.mean_seconds) == 1
    assert res.mean_seconds[0] > 0


def test_resolve_workers_env_var(monkeypatch):
    monkeypatch.setenv("ANNEALSIM_WORKERS", "3")
    assert resolve_workers() == 3
    assert resolve_workers(5) == 5  # explicit argument wins
    monkeypatch.delenv("ANNEALSIM_WORKERS")
    assert resolve_workers() >= 1


def test_config_validation():
    with pytest.raises(ValueError):
        EnsembleConfig(4, 2.0, runs=0, master_seed=0)
    with pytest.raises(ValueError):
        EnsembleConfig(4, 2.0, runs=1, master_seed=0, bins=1)
    with pytest.raises(ValueError):
        EnsembleConfig(4, 2.0, runs=1, master_seed=0, mode="thermal")


def test_blown_up_instances_are_recorded():
    # one segment at T=10 blows the N=6 series up to P ~ 1e35 without an
    # overflow; each instance is a recorded failure and the run completes
    cfg = EnsembleConfig(6, 10.0, runs=3, master_seed=1, schedule=SegmentSchedule(segments=1))
    res = run_ensemble(cfg, workers=1)
    assert res.failure_count == 3
    assert res.histogram.sum() == 0
    assert all(r.success_p > 1.0 for r in res.records)
    assert repr(run_ensemble(cfg, workers=2).records) == repr(res.records)
    json.dumps(run_record(cfg, res, 0.0), allow_nan=False)


def test_sweep_T_blown_up_point_is_nan():
    curve = sweep_T(6, 1, [10.0], schedule=SegmentSchedule(segments=1))
    assert math.isnan(curve.p_values[0])


def test_l_scale_needs_lindblad_mode():
    with pytest.raises(ValueError):
        EnsembleConfig(3, 2.0, runs=2, master_seed=1, l_scale=0.5)
    with pytest.raises(ValueError):
        EnsembleConfig(3, 2.0, runs=2, master_seed=1, mode="lindblad", l_scale=-0.1)
    assert EnsembleConfig(3, 2.0, runs=2, master_seed=1, mode="lindblad", l_scale=0.1).l_scale == 0.1
