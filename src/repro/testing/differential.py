"""Differential verification: one-rank vs. many-rank force agreement.

The distributed pipeline (SFC decomposition -> exchange -> LET -> walk)
must produce forces statistically indistinguishable from the one-rank
tree-code; the paper's validity rests on it.  This module runs the same
initial conditions through :class:`~repro.core.simulation.Simulation`
(the driver on one rank, "serial" below) and
:class:`~repro.core.parallel_simulation.ParallelSimulation` at any
rank count (optionally on a fault-injecting world) and compares the
resulting forces particle-by-particle, with the direct-summation oracle
of :mod:`repro.core.validation` anchoring both to ground truth.

Tolerances: one-rank and many-rank walks take different MAC decisions
near domain boundaries, so their forces differ at the order of the tree
approximation error itself -- which scales like theta**2 for the worst
particle and theta**4 for the median (at ``n_ranks=1`` the two sides
are the same computation and agree bitwise).  The envelopes below were
calibrated against measured differences (a factor >= 4 of headroom) and
double as regression guards.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from ..config import SimulationConfig
from ..core.simulation import Simulation
from ..core.parallel_simulation import ParallelSimulation
from ..core.validation import ForceAccuracy, validate_forces
from ..particles import ParticleSet
from ..simmpi import SimComm, SimWorld, spmd_run
from .invariants import InvariantViolation


def max_rel_difference(acc_a: np.ndarray, acc_b: np.ndarray) -> float:
    """Largest per-particle relative acceleration difference."""
    num = np.linalg.norm(acc_a - acc_b, axis=1)
    den = np.linalg.norm(acc_b, axis=1) + 1e-300
    return float((num / den).max())


def serial_forces(particles: ParticleSet,
                  config: SimulationConfig) -> tuple[np.ndarray, np.ndarray]:
    """One serial tree force evaluation; returns (acc, phi)."""
    sim = Simulation(particles.copy(), config)
    return sim.compute_forces()


def parallel_forces(particles: ParticleSet, config: SimulationConfig,
                    n_ranks: int, world: SimWorld | None = None,
                    decomposition_method: str = "hierarchical",
                    invariant_checks: bool = False,
                    timeout: float = 300.0,
                    transport: str | None = None
                    ) -> tuple[np.ndarray, np.ndarray]:
    """One distributed force evaluation, gathered back to id order.

    ``world`` may be a :class:`~repro.faults.FaultyWorld` to run the
    identical computation over a misbehaving transport; ``transport``
    selects the substrate ("threads"/"process") when no world is given.
    """
    ps = particles
    n = ps.n

    def prog(comm: SimComm):
        lo = n * comm.rank // comm.size
        hi = n * (comm.rank + 1) // comm.size
        sim = ParallelSimulation(comm, ps.select(np.arange(lo, hi)), config,
                                 decomposition_method=decomposition_method,
                                 invariant_checks=invariant_checks)
        sim.prime()
        return sim.particles.ids, sim._acc, sim._phi

    results = spmd_run(n_ranks, prog, world=world, timeout=timeout,
                       transport=transport)
    ids = np.concatenate([r[0] for r in results])
    acc = np.concatenate([r[1] for r in results])
    phi = np.concatenate([r[2] for r in results])
    order = np.argsort(ids, kind="stable")
    return acc[order], phi[order]


@dataclasses.dataclass(frozen=True)
class DifferentialReport:
    """Outcome of one serial-vs-parallel force comparison."""

    n_particles: int
    n_ranks: int
    theta: float
    median_rel: float        # median serial/parallel relative difference
    max_rel: float           # worst particle
    serial_accuracy: ForceAccuracy    # serial vs. direct summation
    parallel_accuracy: ForceAccuracy  # parallel vs. direct summation

    @property
    def median_tolerance(self) -> float:
        """Median-difference envelope: the theta**4 scaling of the
        quadrupole MAC error, with the same generous factor used by
        :meth:`ForceAccuracy.acceptable`."""
        return max(50.0 * self.theta ** 4 * 1e-2, 1e-9)

    @property
    def max_tolerance(self) -> float:
        """Worst-particle envelope: boundary MAC flips cost O(theta**2)."""
        return 0.3 * self.theta ** 2

    def assert_agrees(self) -> None:
        """Raise :class:`InvariantViolation` outside the envelopes."""
        if self.median_rel > self.median_tolerance:
            raise InvariantViolation(
                f"[differential] median serial/parallel force difference "
                f"{self.median_rel:.3e} exceeds {self.median_tolerance:.3e} "
                f"(ranks={self.n_ranks}, theta={self.theta})")
        if self.max_rel > self.max_tolerance:
            raise InvariantViolation(
                f"[differential] max serial/parallel force difference "
                f"{self.max_rel:.3e} exceeds {self.max_tolerance:.3e} "
                f"(ranks={self.n_ranks}, theta={self.theta})")
        if not self.parallel_accuracy.acceptable(self.theta):
            raise InvariantViolation(
                f"[differential] parallel forces fail the direct-summation "
                f"check: median error {self.parallel_accuracy.median:.3e} "
                f"(ranks={self.n_ranks}, theta={self.theta})")


def differential_force_report(particles: ParticleSet,
                              config: SimulationConfig, n_ranks: int,
                              world: SimWorld | None = None,
                              sample_size: int = 192,
                              rng_seed: int = 0,
                              transport: str | None = None
                              ) -> DifferentialReport:
    """Run both drivers on ``particles`` and compare their forces."""
    acc_s, phi_s = serial_forces(particles, config)
    acc_p, phi_p = parallel_forces(particles, config, n_ranks, world=world,
                                   transport=transport)
    num = np.linalg.norm(acc_p - acc_s, axis=1)
    den = np.linalg.norm(acc_s, axis=1) + 1e-300
    rel = num / den
    rng = np.random.default_rng(rng_seed)
    ser = validate_forces(particles, acc_s, phi_s,
                          eps=config.softening, sample_size=sample_size,
                          rng=np.random.default_rng(rng_seed))
    par = validate_forces(particles, acc_p, phi_p, eps=config.softening,
                          sample_size=sample_size, rng=rng)
    return DifferentialReport(
        n_particles=particles.n, n_ranks=n_ranks, theta=config.theta,
        median_rel=float(np.median(rel)), max_rel=float(rel.max()),
        serial_accuracy=ser, parallel_accuracy=par)
