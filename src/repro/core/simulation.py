"""Single-process simulation driver: the full Bonsai step pipeline.

Each step performs, in order and with per-phase timing (Table II rows):
SFC key sort, tree construction, tree properties (multipole moments +
opening radii), the fused tree-walk/force kernel, and the leap-frog
update.  The "domain update" and LET phases are identically zero here;
:class:`~repro.core.parallel_simulation.ParallelSimulation` adds them.

With ``trace=`` (a :class:`repro.obs.Tracer`) every phase is also
emitted as a rank-0 span, using the very clock readings booked into the
:class:`StepBreakdown` -- the serial twin of the parallel driver's
instrumentation.
"""

from __future__ import annotations

import time
from typing import Callable

import numpy as np

from ..config import SimulationConfig
from ..gravity import KernelWorkspace, tree_forces
from ..obs.tracer import NULL_TRACER, Tracer
from ..integrator import EnergyDiagnostics, system_diagnostics
from ..octree import build_octree, compute_moments, make_groups
from ..particles import ParticleSet
from ..sfc import BoundingBox, SortCache
from .step import StepBreakdown


class Simulation:
    """Tree-code N-body simulation on one process.

    Parameters
    ----------
    particles:
        The particle system (modified in place).
    config:
        Numerical parameters (theta, softening, dt, ...).
    trace:
        Optional :class:`repro.obs.Tracer`; phases are emitted as
        rank-0 spans (a one-rank trace, same tooling as parallel runs).
    trace_sink:
        Optional sink spec (see :func:`repro.obs.sink.coerce_sink`):
        a path streams the run to JSONL incrementally, an int bounds
        tracer memory with a ring.  Without ``trace=`` a tracer is
        built around it; call ``sim.tracer.close()`` (or use the
        tracer as a context manager) to finalise streaming files.

    Examples
    --------
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
        if trace_sink is not None:
            from ..obs.sink import coerce_sink
            sink = coerce_sink(trace_sink)
            if trace is None:
                trace = Tracer(sink=sink)
            else:
                trace.add_sink(sink)
        self.tracer = trace if trace is not None else NULL_TRACER
        self.time = 0.0
        self.step_count = 0
        self.history: list[StepBreakdown] = []
        self._acc: np.ndarray | None = None
        self._phi: np.ndarray | None = None
        self._sort_cache = SortCache()
        self._workspace: KernelWorkspace | None = None
        # Resolve the compute backend once (fails fast on unavailable
        # runtimes) and pay any JIT warm-up here, outside every timed
        # phase.  Ignored by the direct-force oracle path.
        from ..gravity.backends import get_backend
        self._backend = get_backend(self.config.backend)
        self._backend.warmup(self.config.precision)
        self._backend_attr = {} if self._backend.name == "numpy" \
            else {"backend": self._backend.name}

    def _now(self) -> float:
        """Phase clock: the tracer's when tracing (so trace == breakdown)."""
        tr = self.tracer
        return tr.clock.now(0) if tr.enabled else time.perf_counter()

    def _rec(self, name: str, t0: float, t1: float, **attrs) -> None:
        tr = self.tracer
        if tr.enabled:
            tr.record(name, 0, t0, t1, cat="phase",
                      step=self.step_count, **attrs)

    @property
    def potential(self) -> np.ndarray | None:
        """Per-particle potential from the latest force evaluation."""
        return self._phi

    @property
    def acceleration(self) -> np.ndarray | None:
        """Per-particle acceleration from the latest force evaluation."""
        return self._acc

    def compute_forces(self, breakdown: StepBreakdown | None = None
                       ) -> tuple[np.ndarray, np.ndarray]:
        """Run the tree pipeline once; returns (acc, phi)."""
        cfg = self.config
        ps = self.particles
        bd = breakdown if breakdown is not None else StepBreakdown()
        bd.n_particles = ps.n

        if cfg.force_method == "direct":
            # The O(N^2) oracle ("if the opening angle is infinitesimal
            # the tree-code reduces to a ... direct N-body code").
            from ..gravity import direct_forces
            pp_before = bd.counts.n_pp
            t0 = self._now()
            acc, phi = direct_forces(ps.pos, ps.mass, eps=cfg.softening,
                                     counts=bd.counts)
            t1 = self._now()
            bd.gravity_local += t1 - t0
            # Span args carry *this pass's* tally; bd.counts accumulates
            # across the passes of one step (e.g. the kickstart).
            self._rec("gravity_local", t0, t1, n_particles=ps.n,
                      n_pp=bd.counts.n_pp - pp_before, n_pc=0,
                      quadrupole=False)
            bd.counts.quadrupole = False
            self._acc, self._phi = acc, phi
            return acc, phi

        t0 = self._now()
        box = BoundingBox.from_positions(ps.pos)
        keys = box.keys(ps.pos, cfg.curve)
        order = self._sort_cache.order_for(keys)
        t1 = self._now()
        bd.sorting += t1 - t0
        self._rec("sorting", t0, t1, sort_mode=self._sort_cache.last_mode)

        tree = build_octree(ps.pos, nleaf=cfg.nleaf, curve=cfg.curve,
                            box=box, keys=keys, order=order)
        t2 = self._now()
        bd.tree_construction += t2 - t1
        self._rec("tree_construction", t1, t2)

        compute_moments(tree, ps.pos, ps.mass)
        make_groups(tree, cfg.ncrit)
        t3 = self._now()
        bd.tree_properties += t3 - t2
        self._rec("tree_properties", t2, t3)

        if self._workspace is None:
            self._workspace = self._backend.make_workspace(cfg.chunk,
                                                           cfg.precision)
        result = tree_forces(tree, ps.pos, ps.mass, theta=cfg.theta,
                             eps=cfg.softening, mac=cfg.mac,
                             quadrupole=cfg.quadrupole,
                             chunk=cfg.chunk, precision=cfg.precision,
                             workspace=self._workspace,
                             backend=self._backend)
        t4 = self._now()
        bd.gravity_local += t4 - t3
        self._rec("gravity_local", t3, t4, n_particles=ps.n,
                  n_pp=result.counts.n_pp, n_pc=result.counts.n_pc,
                  quadrupole=cfg.quadrupole, **self._backend_attr)
        bd.counts.add(result.counts)
        bd.counts.quadrupole = cfg.quadrupole

        self._acc, self._phi = result.acc, result.phi
        return result.acc, result.phi

    def step(self) -> StepBreakdown:
        """Advance one KDK leap-frog step; returns its timing breakdown."""
        bd = StepBreakdown()
        if self._acc is None:
            self.compute_forces(bd)
        dt = self.config.dt
        half = 0.5 * dt

        t0 = self._now()
        self.particles.vel += self._acc * half
        self.particles.pos += self.particles.vel * dt
        t1 = self._now()
        bd.other += t1 - t0
        self._rec("other", t0, t1)

        self.compute_forces(bd)

        t2 = self._now()
        self.particles.vel += self._acc * half
        t3 = self._now()
        bd.other += t3 - t2
        self._rec("other", t2, t3)

        self.time += dt
        self.step_count += 1
        self.history.append(bd)
        return bd

    def evolve(self, n_steps: int,
               callback: Callable[["Simulation"], None] | None = None) -> None:
        """Advance ``n_steps`` steps, invoking ``callback`` after each."""
        for _ in range(n_steps):
            self.step()
            if callback is not None:
                callback(self)

    def diagnostics(self) -> EnergyDiagnostics:
        """Energy/momentum diagnostics from the latest potentials."""
        if self._phi is None:
            self.compute_forces()
        return system_diagnostics(self.particles, self._phi)
