"""Anneals checked against ``perfbench/reference.py``, which shares no code with annealsim.

That module rebuilds the Hamiltonians, the start state and the dissipator
from their written definitions and integrates them with DOP853; it is
loaded here by path, under a name of its own, and nothing in it is changed.
The model of each case is the reference's own draw of the instance's
couplings, so a defect in annealsim's instances, driver, lift or start
state shows here, where the RK4 oracle shares them.
"""

import importlib.util
import math
from pathlib import Path

import numpy as np
import pytest

from annealsim.ensemble import instance_seed
from annealsim.lindblad_propagator import propagate_density
from annealsim.spin_system import random_ising_half
from annealsim.taylor_propagator import (
    AnnealParams, SegmentSchedule, _ising_apply, propagate, transverse_field_half,
)

_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "reference.py"
_SPEC = importlib.util.spec_from_file_location("annealsim_tests_independent_reference", _PATH)
reference = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(reference)


def _instance(n, seed):
    hf = random_ising_half(n, seed)
    couplings = reference.instance_couplings(n, seed)
    assert np.array_equal(hf.couplings, couplings)
    return hf, couplings


@pytest.mark.parametrize("n", [8, 12])
def test_unitary_matches_the_independent_reference(n):
    # T = 10 at K = ceil(T * bound / 24) segments (15 at N=8, 33 at N=12),
    # three instances each, within 1e-9 of DOP853 at its tight tolerances
    t_anneal = 10.0
    tf = transverse_field_half(n)
    for k in range(3):
        hf, couplings = _instance(n, instance_seed(1, k))
        bound = _ising_apply(tf, hf.half_diag.astype(complex), t_anneal).bound
        segments = math.ceil(t_anneal * bound / 24)
        res = propagate(AnnealParams(n, t_anneal), hf, SegmentSchedule(segments=segments))
        p_ref = reference.schrodinger_p(couplings, t_anneal, reference.TIGHT)
        assert res.converged
        assert abs(res.success_p - p_ref) < 1e-9, (k, res.success_p, p_ref)


@pytest.mark.parametrize("l_scale", [0.1, 0.3])
def test_lindblad_matches_the_independent_reference(l_scale):
    # N=6, T=4 at the default schedule, within 1e-10 of DOP853
    n, t_anneal = 6, 4.0
    hf, couplings = _instance(n, instance_seed(1, 0))
    res = propagate_density(AnnealParams(n, t_anneal), hf, l_scale)
    p_ref = reference.lindblad_p(couplings, t_anneal, l_scale, reference.TIGHT)
    assert res.converged
    assert abs(res.success_p - p_ref) < 1e-10, (res.success_p, p_ref)
