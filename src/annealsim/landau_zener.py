"""The two-level avoided-crossing (Landau-Zener) benchmark.

H(s) = (1-2s) sigma_z + delta sigma_x runs through the Taylor kernel, and
:func:`lz_propagate` backs the ``lz`` and ``lz-sweep`` commands.  The
problem is small enough to check against the paper's published digits, and
a single segment at large T shows the blow-up that segmentation prevents.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .taylor_propagator import (
    Generator, PropagationResult, SegmentSchedule, _Problems, run_segments, settle,
)

SIGMA_X = np.array([[0.0, 1.0], [1.0, 0.0]])
SIGMA_Z = np.array([[1.0, 0.0], [0.0, -1.0]])


@dataclass(frozen=True)
class LZParams:
    """Avoided-crossing benchmark: H(s) = (1-2s) sigma_z + delta sigma_x."""

    delta: float
    t_anneal: float

    def __post_init__(self):
        if not 0 < self.delta < math.inf:  # NaN too
            raise ValueError(f"delta must be positive and finite, got {self.delta}")
        if not 0 < self.t_anneal < math.inf:  # NaN too
            raise ValueError(f"anneal time must be positive and finite, got {self.t_anneal}")


def lz_hamiltonian(delta: float, s: float) -> np.ndarray:
    return (1.0 - 2.0 * s) * SIGMA_Z + delta * SIGMA_X


def lz_ground_state(delta: float, s: float) -> np.ndarray:
    """Ground state of H(s), phase fixed: largest component real positive."""
    _, vecs = np.linalg.eigh(lz_hamiltonian(delta, s))
    g = vecs[:, 0].astype(np.complex128)
    pivot = int(np.argmax(np.abs(g)))
    g *= np.abs(g[pivot]) / g[pivot]
    return g


def lz_propagate(params: LZParams, schedule: SegmentSchedule | None = None) -> PropagationResult:
    """Run the Taylor recurrence on the two-level benchmark.

    The success probability is the squared overlap with the ground state of
    H(1), and ``norm_drift`` the largest |<psi|psi> - 1| at a segment
    boundary.  With a single segment and a large T the intermediate sums
    blow up and leave a wildly large or visibly denormalised state; that
    pathology is reported as-is, never masked, and the run is judged as
    every evolution is (see :func:`~annealsim.taylor_propagator.run_segments`).
    A pair whose T * bound, T * 2 hypot(1, delta), is not finite raises a
    ValueError: below that, every entry of the folded matrices is finite.
    """
    t = params.t_anneal
    bound = 2.0 * math.hypot(1.0, params.delta)  # ||H(0)|| + ||H(1)||
    if not t * bound < math.inf:
        raise ValueError(f"T * 2 hypot(1, delta) must be finite, "
                         f"got T = {t}, delta = {params.delta}")
    h0 = lz_hamiltonian(params.delta, 0.0)
    const = -1j * t * h0
    ramp = -1j * t * (lz_hamiltonian(params.delta, 1.0) - h0)

    def apply(v, a_out, b_out):
        np.matmul(const, v, out=a_out)
        np.matmul(ramp, v, out=b_out)

    # the factor -iT is folded into the matrices
    gen = Generator(apply, 1.0, _Problems.squares, bound)
    psi0 = lz_ground_state(params.delta, 0.0)
    psi, terms, drift, converged = run_segments(gen, psi0, t, schedule)
    g1 = lz_ground_state(params.delta, 1.0)
    p, converged = settle(float(np.abs(np.vdot(g1, psi)) ** 2), bool(converged))
    return PropagationResult(psi, p, float(drift), terms, converged)
