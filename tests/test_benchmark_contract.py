import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import annealsim
import annealsim.lindblad_propagator as lp
import annealsim.taylor_propagator as tp
from annealsim.spin_system import apply_initial, random_ising_half, transverse_field_half

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
SRC = Path(annealsim.__file__).resolve().parent.parent

CHECK = """
import layers
assert layers.PATCHES
missing = [f"{m.__name__}.{a}" for m, a, _ in layers.PATCHES if not hasattr(m, a)]
assert not missing, missing
"""

POOL_CHECK = """
import layers
import annealsim.ensemble as ens
sizes = []
ens.ProcessPoolExecutor = layers._pool_recording_task_sizes(sizes)
for workers, blocks in ((2, 2), (3, 3)):
    sizes.clear()
    config = ens.EnsembleConfig(4, 2.0, runs=6, master_seed=1)
    result = ens.run_ensemble(config, workers=workers)
    own = len(range(0, result.blocks, workers))  # the calling process runs every n-th task
    assert result.blocks == blocks, result.blocks
    assert len(sizes) == result.blocks - own >= 1, (result.blocks, sizes)
"""


POOL_CLASS_CHECK = """
import sys
import annealsim.ensemble as ens
assert "concurrent.futures" not in sys.modules
pool_class = getattr(ens, "ProcessPoolExecutor")
import concurrent.futures
assert pool_class is concurrent.futures.ProcessPoolExecutor, pool_class
assert not hasattr(ens, "ThreadPoolExecutor")
"""


WORKLOAD_CHECK = """
import math
import workloads as wl
cases = [wl.Workload("vector-n4", 4, 2.0, runs=1),
         wl.Workload("pooled-n4", 4, 2.0, runs=3),
         wl.Workload("lindblad-n3", 3, 2.0, runs=1, mode="lindblad", l_scale=0.1)]
for w in cases:
    inputs = wl.setup(w, 1)
    outcomes = wl.run_round(w, inputs)
    assert outcomes is not None and len(outcomes) == w.runs, (w.name, outcomes)
    for inst in inputs.instances:
        outcome, rho = wl.anneal(w, inst)
        outcomes.append(outcome)
        if w.mode == "lindblad":
            assert rho.shape == (8, 8), (w.name, rho.shape)
        else:
            assert rho is None, w.name
    for o in outcomes:
        assert math.isfinite(o.p) and math.isfinite(o.drift) and o.terms >= 2, (w.name, o)
"""


def _run_in_perfbench(code: str) -> subprocess.CompletedProcess:
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(SRC), str(PERFBENCH)])}
    return subprocess.run([sys.executable, "-c", code], cwd=PERFBENCH, env=env,
                          capture_output=True, text=True)


def test_benchmark_patch_points_resolve():
    # the traced benchmark patches each (module, attribute) of
    # perfbench/layers.py PATCHES; a renamed or removed one breaks it
    proc = _run_in_perfbench(CHECK)
    assert proc.returncode == 0, proc.stdout + proc.stderr


def test_benchmark_pool_hook_sees_each_task():
    # ensemble.task_pickle_bytes comes from a pool whose map zips its
    # positional iterables; it must record one argument tuple per task sent
    # to the pool: every task but the calling process's share, at least one
    proc = _run_in_perfbench(POOL_CHECK)
    assert proc.returncode == 0, proc.stdout + proc.stderr


def test_pool_class_reads_as_a_module_attribute():
    # the traced benchmark reads ensemble.ProcessPoolExecutor with getattr
    # and swaps it; the class loads on that first read, as on a first pool
    proc = _run_in_perfbench(POOL_CLASS_CHECK)
    assert proc.returncode == 0, proc.stdout + proc.stderr


def test_benchmark_workloads_read_every_outcome():
    # perfbench's anneal and run_round read P, the norm or trace drift,
    # the terms and rho of each propagator's result, and run_ensemble's
    # records: a small vector, pooled round and Lindblad run each give
    # every outcome, with a finite P and drift, at least 2 terms, and rho
    proc = _run_in_perfbench(WORKLOAD_CHECK)
    assert proc.returncode == 0, proc.stdout + proc.stderr


@pytest.mark.parametrize("n", [8, 18])
def test_driver_exposes_csr_arrays(n):
    # spin_system.driver_bytes sums these three arrays (layers._csr_bytes)
    couplings = transverse_field_half(n).couplings
    for attr in ("data", "indices", "indptr"):
        assert isinstance(getattr(couplings, attr), np.ndarray)


def test_driver_product_is_traced_once_per_term(monkeypatch):
    # the traced spin_system.apply_initial span wraps this module global, and
    # taylor_propagator.non_driver_term_us assumes one call per term: per
    # segment, as many calls as the longest column's terms.  A block narrows
    # to its live columns as they stop, so within a segment the width starts
    # at the block's and never grows
    calls = []

    def counted(tf, psi, out, work):
        calls.append(psi.shape)
        return apply_initial(tf, psi, out, work)

    monkeypatch.setattr(tp, "apply_initial", counted)
    params, schedule = tp.AnnealParams(6, 5.0), tp.SegmentSchedule(segments=3)
    res = tp.propagate(params, random_ising_half(6, 2), schedule)
    assert len(calls) == sum(res.terms_per_segment) and set(calls) == {(32,)}
    calls.clear()
    block = tp.propagate_block(params, [random_ising_half(6, seed) for seed in (2, 5, 6)], schedule)
    longest = np.max([r.terms_per_segment for r in block], axis=0)
    assert len(calls) == sum(longest)
    widths = [shape[1] for shape in calls]
    for first, last in zip(np.cumsum([0, *longest[:-1]]), np.cumsum(longest)):
        segment = widths[first:last]
        assert segment[0] == 3 and segment == sorted(segment, reverse=True)
    assert min(widths) == 1  # the seeds stop apart: the block narrows


@pytest.mark.parametrize("l_scale, ladders", [(0.1, 1), (0.0, 0)])
def test_density_builds_are_traced(monkeypatch, l_scale, ladders):
    # the traced Lindblad probe takes the median of the full_flip_matrix and
    # build_energy_lowering_op spans, which it wraps as these module globals
    calls = []
    for name in ("full_flip_matrix", "build_energy_lowering_op"):
        def counted(*args, _name=name, _f=getattr(lp, name)):
            calls.append(_name)
            return _f(*args)

        monkeypatch.setattr(lp, name, counted)
    lp.propagate_density(tp.AnnealParams(3, 2.0), random_ising_half(3, 1), l_scale)
    assert calls.count("full_flip_matrix") == 1
    assert calls.count("build_energy_lowering_op") == ladders
