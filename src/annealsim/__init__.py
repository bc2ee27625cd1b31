"""Recursive Taylor-series simulator for adiabatic quantum annealing (run-level API)."""

from .ensemble import (
    EnsembleConfig,
    EnsembleResult,
    instance_seed,
    run_ensemble,
    scaling_sweep,
    sweep_T,
)
from .errors import CapacityError
from .lindblad_propagator import DensityPropagationResult, propagate_density
from .landau_zener import LZParams, lz_propagate
from .spin_system import IsingDiagonal, random_ising_half
from .taylor_propagator import AnnealParams, PropagationResult, SegmentSchedule, propagate

__all__ = [
    "AnnealParams",
    "CapacityError",
    "DensityPropagationResult",
    "EnsembleConfig",
    "EnsembleResult",
    "IsingDiagonal",
    "LZParams",
    "PropagationResult",
    "SegmentSchedule",
    "instance_seed",
    "lz_propagate",
    "propagate",
    "propagate_density",
    "random_ising_half",
    "run_ensemble",
    "scaling_sweep",
    "sweep_T",
]

__version__ = "0.1.0"
