import json
import math
import multiprocessing
import os
import time

import numpy as np
import pytest

import annealsim.ensemble as ens
import annealsim.taylor_propagator as tp
from annealsim.ensemble import (
    EnsembleConfig,
    InstanceRecord,
    block_width,
    histogram,
    instance_seed,
    resolve_workers,
    run_ensemble,
    scaling_sweep,
    sweep_T,
)
from annealsim.cli import run_record
from annealsim.spin_system import (
    apply_initial,
    ground_space,
    random_ising_block,
    random_ising_half,
)
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
    d_half = ground_space(inst.half_diag).size
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


def test_unitary_blocks_match_direct_propagate():
    # 131 runs fill blocks of 64, 64, 3 (workers 1 and 2) and 44, 44, 43 (3)
    n, t_anneal, runs = 8, 10.0, 131
    params = AnnealParams(n, t_anneal)
    direct = []
    for k in range(runs):
        seed = instance_seed(7, k)
        res = propagate(params, random_ising_half(n, seed))
        direct.append(InstanceRecord(
            k, seed, res.success_p, sum(res.terms_per_segment), res.norm_drift, res.converged
        ))
    assert block_width(13, 10000, 1) == 2
    assert block_width(14, 10000, 1) == 1  # a block is one column from N = 14 on
    for workers, width in ((1, 64), (2, 64), (3, 44)):
        assert block_width(n, runs, workers) == width
        config = EnsembleConfig(n, t_anneal, runs, master_seed=7)
        result = run_ensemble(config, workers)
        assert repr(result.records) == repr(direct)
        timing = run_record(config, result, 1.5)["timing"]
        assert timing == {"wall_seconds": 1.5, "workers": workers, "blocks": 3}


def _ensemble_bytes(config, workers):
    # records, histogram and run record of a run, timing aside
    result = run_ensemble(config, workers)
    record = run_record(config, result, 0.0)
    del record["timing"]
    return repr(result.records), result.histogram.tobytes(), json.dumps(record, sort_keys=True)


@pytest.mark.parametrize(
    "n, t_anneal, runs, mode, l_scale",
    [
        # tasks at workers 1, 2, 3, 8: 131 runs give 3, 3, 3 and 8 blocks,
        # 2 runs give 1, 2, 2 and 2; Lindblad runs give one task per run
        (8, 2.0, 131, "unitary", 0.0),
        (8, 2.0, 2, "unitary", 0.0),
        (3, 2.0, 3, "lindblad", 0.1),
        (3, 2.0, 10, "lindblad", 0.1),
    ],
)
def test_records_are_bytes_alike_for_any_worker_count(n, t_anneal, runs, mode, l_scale):
    # the calling process runs every n-th task and a pool the rest: fewer
    # tasks than workers, as many, and more give the same bytes
    config = EnsembleConfig(n, t_anneal, runs, master_seed=11, mode=mode, l_scale=l_scale)
    serial = _ensemble_bytes(config, 1)
    for workers in (2, 3, 8):
        assert _ensemble_bytes(config, workers) == serial
    assert not multiprocessing.active_children()


@pytest.mark.parametrize("where", ["caller", "pool"])
def test_failed_task_leaves_no_process(where, monkeypatch):
    # a task that raises, in this process or in the pool, ends the run with
    # its error, and every pool process has been joined
    caller = os.getpid()

    def build(n_qubits, seeds):
        if (os.getpid() == caller) == (where == "caller"):
            raise RuntimeError(f"task failed in the {where}")
        return random_ising_block(n_qubits, seeds)

    monkeypatch.setattr(ens, "random_ising_block", build)
    config = EnsembleConfig(3, 2.0, runs=4, master_seed=2)
    with pytest.raises(RuntimeError, match=where):
        run_ensemble(config, workers=2)
    assert not multiprocessing.active_children()


def test_ensemble_failure_policy():
    cases = [
        # max_terms=2 cannot converge at this T
        (3, 6.0, SegmentSchedule(max_terms=2), False),
        # one segment this long overflows (a NaN result) in every instance
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
    with pytest.raises(ValueError, match="outside"):  # not a bincount error after a NaN cast
        histogram(np.array([0.5, np.nan]), 4)


def test_histogram_uniform_statistics():
    rng = np.random.default_rng(0)
    ps = rng.uniform(0.0, 1.0, size=10_000)
    counts = histogram(ps, 32)
    expected = 10_000 / 32
    sigma = math.sqrt(10_000 * (1 / 32) * (31 / 32))
    assert np.all(np.abs(counts - expected) < 5 * sigma)
    assert counts.sum() == 10_000


def test_sweep_t_single_point_matches_propagate():
    direct = propagate(AnnealParams(4, 4.0), random_ising_half(4, 1))
    for t_list in ([4.0], iter([4.0])):
        curve = sweep_T(4, 1, t_list)
        assert list(curve.t_values) == [4.0] and curve.p_values.shape == (1,)
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


def test_scaling_sweep_times_the_anneals_alone(monkeypatch):
    # a slow instance draw must not enter the reported time per anneal
    draw, anneals = ens.random_ising_half, []

    def slow_draw(n, seed):
        time.sleep(0.2)
        return draw(n, seed)

    monkeypatch.setattr(ens, "random_ising_half", slow_draw)
    monkeypatch.setattr(ens, "propagate", lambda params, hf, schedule: anneals.append(hf.seed))
    res = scaling_sweep([4, 5], 2.0, runs_per_n=2)
    assert anneals == [instance_seed(0, k) for k in range(2)] * 2
    assert max(res.mean_seconds) < 0.05


def test_resolve_workers_env_var(monkeypatch):
    monkeypatch.setenv("ANNEALSIM_WORKERS", "3")
    assert resolve_workers() == 3
    assert resolve_workers(5) == 5  # explicit argument wins
    for bad in ("0", "-2", "two", "1.5"):
        monkeypatch.setenv("ANNEALSIM_WORKERS", bad)
        with pytest.raises(ValueError, match="ANNEALSIM_WORKERS"):
            resolve_workers()
    for bad in (0, -3, 1.5):  # int(1.5) would run one worker
        with pytest.raises(ValueError, match="workers must be"):
            resolve_workers(bad)
    monkeypatch.delenv("ANNEALSIM_WORKERS")
    assert resolve_workers() >= 1


def test_default_workers_follow_affinity_mask(monkeypatch):
    # a process pinned to one CPU (taskset -c 0) gets one worker, whatever
    # the host's CPU count
    monkeypatch.delenv("ANNEALSIM_WORKERS", raising=False)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: 64)
    assert resolve_workers() == 1
    monkeypatch.delattr(os, "sched_getaffinity")  # a platform without one
    assert resolve_workers() == 64


def test_lone_instance_reaches_kernel_as_vector(monkeypatch):
    # a one-run unitary task anneals as a 1-D state, a two-run task as a
    # (dim, 2) block, which may narrow to the (dim, 1) block of the column
    # still running; both through the one block entry point
    shapes = []

    def spy(tf, v, out, work):
        shapes.append(v.shape)
        return apply_initial(tf, v, out, work)

    monkeypatch.setattr(tp, "apply_initial", spy)
    for runs, allowed in ((1, {(4,)}), (2, {(4, 2), (4, 1)})):
        shapes.clear()
        run_ensemble(EnsembleConfig(3, 2.0, runs, master_seed=3), workers=1)
        assert shapes and shapes[0] == max(allowed) and set(shapes) <= allowed


def test_config_validation():
    with pytest.raises(ValueError):
        EnsembleConfig(4, 2.0, runs=0, master_seed=0)
    with pytest.raises(ValueError):
        EnsembleConfig(4, 2.0, runs=1, master_seed=0, bins=1)
    with pytest.raises(ValueError):
        EnsembleConfig(4, 2.0, runs=1, master_seed=0, mode="thermal")
    with pytest.raises(ValueError, match="SegmentSchedule"):  # the record writer reads it
        EnsembleConfig(4, 2.0, runs=3, master_seed=1, schedule=None)
    # an integer field takes no float, however whole: a master seed of 1.5
    # would run as seed 1 and be recorded as 1.5
    for name, value in (("runs", 2.5), ("bins", 4.5), ("n_qubits", 4.0), ("master_seed", 1.5)):
        fields = {"n_qubits": 4, "t_anneal": 2.0, "runs": 3, "master_seed": 1, name: value}
        with pytest.raises(ValueError, match=f"{name} must be an integer"):
            EnsembleConfig(**fields)
    with pytest.raises(ValueError, match="runs_per_n must be an integer"):
        scaling_sweep([4], 1.0, runs_per_n=2.5)


@pytest.mark.parametrize("t_anneal", [-1.0, 0.0, math.nan, math.inf])
def test_config_rejects_bad_anneal_time(t_anneal, monkeypatch):
    # at construction, as AnnealParams rejects it: before any seed is drawn
    # or any pool is forked; sweep_T checks every point before it runs one
    with pytest.raises(ValueError, match="anneal time"):
        EnsembleConfig(4, t_anneal, runs=4, master_seed=1)
    monkeypatch.setattr(ens, "_run_block", lambda *args: pytest.fail("a point ran"))
    with pytest.raises(ValueError, match="anneal time"):
        sweep_T(3, 1, [2.0, t_anneal])


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


def test_mean_p_stderr_is_the_standard_error_of_the_converged_p():
    cfg = EnsembleConfig(4, 2.0, runs=12, master_seed=3)
    res = run_ensemble(cfg, workers=1)
    ps = [r.success_p for r in res.records if r.converged]
    n = len(ps)
    mean = sum(ps) / n
    stderr = math.sqrt(sum((p - mean) ** 2 for p in ps) / (n - 1)) / math.sqrt(n)
    summary = run_record(cfg, res, 0.0)["summary"]
    assert n == 12 and stderr > 0
    assert math.isclose(summary["mean_p_stderr"], stderr, rel_tol=1e-12)
    # below two converged runs there is no sample deviation
    one = EnsembleConfig(4, 2.0, runs=1, master_seed=3)
    assert run_record(one, run_ensemble(one, workers=1), 0.0)["summary"]["mean_p_stderr"] is None
    failed = EnsembleConfig(6, 10.0, runs=3, master_seed=1, schedule=SegmentSchedule(segments=1))
    summary = run_record(failed, run_ensemble(failed, workers=1), 0.0)["summary"]
    assert summary["converged"] == 0 and summary["mean_p_stderr"] is None


def test_sweep_T_blown_up_point_is_nan():
    curve = sweep_T(6, 1, [10.0], schedule=SegmentSchedule(segments=1))
    assert math.isnan(curve.p_values[0])


def test_l_scale_needs_lindblad_mode():
    with pytest.raises(ValueError):
        EnsembleConfig(3, 2.0, runs=2, master_seed=1, l_scale=0.5)
    with pytest.raises(ValueError):
        EnsembleConfig(3, 2.0, runs=2, master_seed=1, mode="lindblad", l_scale=-0.1)
    assert EnsembleConfig(3, 2.0, runs=2, master_seed=1, mode="lindblad", l_scale=0.1).l_scale == 0.1
    # sweep_T checks its mode and l_scale the same way
    with pytest.raises(ValueError, match="unknown mode"):
        sweep_T(3, 1, [2.0], mode="lindbald")
    with pytest.raises(ValueError, match="lindblad mode only"):
        sweep_T(3, 1, [2.0], mode="unitary", l_scale=0.5)
