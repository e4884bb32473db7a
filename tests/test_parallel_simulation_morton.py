"""Distributed pipeline under the Morton curve (config cross-product).

The paper chose the Peano-Hilbert curve, but the machinery must be
curve-agnostic; these tests run the full distributed stack with Morton
ordering and a few other non-default configuration combinations.
"""

import numpy as np
import pytest

from repro import Simulation, SimulationConfig
from repro.core.parallel_simulation import gather_particles, run_parallel_simulation
from repro.gravity import direct_forces
from repro.ics import plummer_model


@pytest.mark.parametrize("curve", ["morton", "hilbert"])
def test_parallel_forces_match_direct_under_both_curves(curve):
    ps = plummer_model(3000, seed=106)
    cfg = SimulationConfig(theta=0.5, softening=0.03, dt=0.01, curve=curve)
    sims = run_parallel_simulation(3, ps.copy(), cfg, n_steps=1)
    out = gather_particles(sims)
    # one KDK step of the serial driver must match
    serial = Simulation(ps.copy(), cfg)
    serial.evolve(1)
    assert np.allclose(out.pos, serial.particles.pos, atol=1e-8)


def test_bh_mac_distributed():
    ps = plummer_model(2500, seed=107)
    cfg = SimulationConfig(theta=0.5, softening=0.03, dt=0.01, mac="bh")
    sims = run_parallel_simulation(2, ps.copy(), cfg, n_steps=1)
    out = gather_particles(sims)
    acc_d, _ = direct_forces(ps.pos, ps.mass, eps=cfg.softening)
    # after one step positions moved by ~v dt; just verify finite & bound
    assert np.all(np.isfinite(out.pos))
    assert out.n == 2500


def test_monopole_only_distributed():
    ps = plummer_model(2500, seed=108)
    cfg = SimulationConfig(theta=0.4, softening=0.03, dt=0.01,
                           quadrupole=False)
    sims = run_parallel_simulation(2, ps.copy(), cfg, n_steps=1)
    for s in sims:
        assert s.history[0].counts.quadrupole is False
    out = gather_particles(sims)
    serial = Simulation(ps.copy(), cfg)
    serial.evolve(1)
    assert np.allclose(out.pos, serial.particles.pos, atol=1e-8)


@pytest.mark.parametrize("nleaf,ncrit", [(4, 16), (16, 64), (32, 128)])
def test_capacity_combinations(nleaf, ncrit):
    ps = plummer_model(2000, seed=109)
    cfg = SimulationConfig(theta=0.6, softening=0.05, dt=0.01,
                           nleaf=nleaf, ncrit=ncrit)
    sims = run_parallel_simulation(2, ps.copy(), cfg, n_steps=1)
    acc = np.concatenate([s._acc for s in sims])
    ids = np.concatenate([s.particles.ids for s in sims])
    acc = acc[np.argsort(ids)]
    acc_d, _ = direct_forces(ps.pos, ps.mass, eps=cfg.softening)
    # forces were computed post-drift; compare against serial instead
    serial = Simulation(ps.copy(), cfg)
    serial.evolve(1)
    err = np.linalg.norm(acc - serial.acceleration, axis=1)
    scale = np.linalg.norm(serial.acceleration, axis=1)
    assert np.median(err / scale) < 1e-3
