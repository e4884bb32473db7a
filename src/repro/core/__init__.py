"""The simulation driver, its one-process front and the Table II record."""

from .step import StepBreakdown
from .simulation import Simulation
from .parallel_simulation import ParallelSimulation, run_parallel_simulation
from .validation import ForceAccuracy, validate_forces

__all__ = [
    "StepBreakdown",
    "Simulation",
    "ParallelSimulation",
    "run_parallel_simulation",
    "ForceAccuracy",
    "validate_forces",
]
