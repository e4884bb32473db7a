"""repro: a reproduction of Bedorf et al. (SC'14), the Bonsai gravitational
tree-code and its Milky Way Galaxy simulation campaign.

Quickstart::

    from repro import Simulation, SimulationConfig
    from repro.ics import milky_way_model

    sim = Simulation(milky_way_model(100_000),
                     SimulationConfig(theta=0.4, softening=0.05, dt=0.5))
    sim.evolve(10)
    print(sim.diagnostics())

Package layout (see DESIGN.md for the full inventory):

- :mod:`repro.sfc`        -- Morton / Peano-Hilbert keys.
- :mod:`repro.octree`     -- sparse octree, multipole moments, groups.
- :mod:`repro.gravity`    -- force kernels, direct solver, tree walk.
- :mod:`repro.integrator` -- leap-frog, diagnostics.
- :mod:`repro.ics`        -- Milky Way / Plummer initial conditions.
- :mod:`repro.simmpi`     -- in-process SPMD message-passing runtime.
- :mod:`repro.parallel`   -- SFC decomposition, LET exchange, distributed
  gravity.
- :mod:`repro.core`       -- the simulation driver and its one-process front.
- :mod:`repro.perfmodel`  -- calibrated at-scale performance model
  (Fig. 1, Fig. 4, Tables I-II).
- :mod:`repro.analysis`   -- bar strength, surface density, kinematics
  (Fig. 3).
- :mod:`repro.io`         -- snapshots.
- :mod:`repro.faults`     -- deterministic fault injection for SimMPI
  (docs/TESTING.md).
- :mod:`repro.testing`    -- invariant checkers + serial-vs-parallel
  differential oracle.
"""

from . import constants
from .config import SimulationConfig
from .core import ParallelSimulation, Simulation, StepBreakdown
from .particles import ParticleSet

__all__ = [
    "constants",
    "SimulationConfig",
    "ParticleSet",
    "Simulation",
    "ParallelSimulation",
    "StepBreakdown",
]

__version__ = "1.0.0"
