"""Single-process front of the one driver.

:class:`Simulation` runs :class:`.ParallelSimulation` on a one-rank
world in the caller's thread: the step loop, Table II rows and spans of
any rank count (trivial domain update, zero LET rows).  The driver keeps
SFC order; this front writes pos/vel/acc/phi back in the caller's.
"""

from __future__ import annotations

import numpy as np

from ..config import SimulationConfig
from ..integrator import EnergyDiagnostics
from ..obs.tracer import Tracer
from ..particles import ParticleSet
from ..simmpi import SimComm, SimWorld
from .parallel_simulation import ParallelSimulation
from .step import StepBreakdown


def _driver_attr(name: str) -> property:
    """Read/write property forwarding to the driver's attribute."""
    return property(lambda self: getattr(self._driver, name),
                    lambda self, value: setattr(self._driver, name, value))


class Simulation:
    """Tree-code N-body simulation on one process.

    ``particles`` is updated in place and stays in the caller's order.
    ``trace`` (a :class:`repro.obs.Tracer`) receives every phase as a
    rank-0 span; ``trace_sink`` (see :func:`repro.obs.sink.coerce_sink`)
    is attached to it, or to a tracer built around it -- call
    ``sim.tracer.close()`` to finalise streaming files.

    >>> from repro.ics import plummer_model
    >>> from repro import SimulationConfig
    >>> sim = Simulation(plummer_model(1000), SimulationConfig(dt=0.01))
    >>> sim.evolve(10)
    >>> round(sim.time, 2)
    0.1
    """

    def __init__(self, particles: ParticleSet, config: SimulationConfig | None = None,
                 trace: Tracer | None = None, trace_sink=None):
        self.particles = particles
        self.config = config or SimulationConfig()
        if trace_sink is not None and trace is not None:
            trace.add_sink(trace_sink)
        elif trace_sink is not None:
            trace = Tracer(sink=trace_sink)
        local = particles.copy()
        local.ids = np.arange(particles.n)       # row in the caller's set
        self._driver = ParallelSimulation(SimComm(SimWorld(1), 0), local,
                                          self.config, trace=trace)
        self.tracer = self._driver.tracer
        #: Latest forces, in the caller's order (None before the first pass).
        self.acceleration = self.potential = None

    time = _driver_attr("time")
    step_count = _driver_attr("step_count")
    history = _driver_attr("history")

    def _sync(self) -> None:
        """Scatter the driver's SFC-ordered state to the caller's rows."""
        d, ps = self._driver, self.particles
        rows = d.particles.ids
        ps.pos[rows] = d.particles.pos
        ps.vel[rows] = d.particles.vel
        self.acceleration = np.empty_like(d.acc)
        self.potential = np.empty_like(d.phi)
        self.acceleration[rows] = d.acc
        self.potential[rows] = d.phi

    def compute_forces(self, breakdown: StepBreakdown | None = None
                       ) -> tuple[np.ndarray, np.ndarray]:
        """Run the force pipeline once; returns (acc, phi)."""
        self._driver.prime(breakdown)
        self._sync()
        return self.acceleration, self.potential

    def step(self) -> StepBreakdown:
        """Advance one KDK leap-frog step; returns its timing breakdown."""
        bd = self._driver.step()
        self._sync()
        return bd

    def evolve(self, n_steps: int, callback=None) -> None:
        """Advance ``n_steps`` steps; ``callback(self)`` runs after each."""
        for _ in range(n_steps):
            self.step()
            if callback is not None:
                callback(self)

    def diagnostics(self) -> EnergyDiagnostics:
        """Energy/momentum diagnostics from the latest potentials."""
        if self.potential is None:
            self.compute_forces()
        return self._driver.diagnostics()
