"""Tests for the distributed simulation driver."""

import numpy as np
import pytest

from repro import Simulation, SimulationConfig
from repro.core.parallel_simulation import gather_particles, run_parallel_simulation
from repro.ics import plummer_model


@pytest.fixture(scope="module")
def cfg():
    return SimulationConfig(theta=0.5, softening=0.02, dt=0.01)


def test_tracks_serial_simulation(cfg):
    """Multi-rank evolution must track the serial driver closely (the
    only differences are MAC decisions near domain boundaries)."""
    ps = plummer_model(3000, seed=59)
    sims = run_parallel_simulation(3, ps.copy(), cfg, n_steps=3)
    parallel = gather_particles(sims)
    serial = Simulation(ps.copy(), cfg)
    serial.evolve(3)
    dx = np.linalg.norm(parallel.pos - serial.particles.pos, axis=1)
    scale = np.linalg.norm(serial.particles.pos, axis=1).mean()
    assert np.max(dx) < 1e-4 * scale


def test_energy_conserved(cfg):
    ps = plummer_model(3000, seed=60)
    n = ps.n

    def prog(comm):
        from repro.core import ParallelSimulation
        lo = n * comm.rank // comm.size
        hi = n * (comm.rank + 1) // comm.size
        sim = ParallelSimulation(comm, ps.select(np.arange(lo, hi)), cfg)
        e0 = sim.diagnostics().total
        sim.evolve(10)
        e1 = sim.diagnostics().total
        return e0, e1

    from repro.simmpi import spmd_run
    results = spmd_run(2, prog)
    e0, e1 = results[0]
    assert abs((e1 - e0) / e0) < 1e-3
    # all ranks agree on the reduced diagnostics
    assert results[0] == pytest.approx(results[1])


def test_particle_count_conserved(cfg):
    ps = plummer_model(2000, seed=61)
    sims = run_parallel_simulation(4, ps, cfg, n_steps=2)
    assert sum(s.particles.n for s in sims) == 2000
    ids = np.concatenate([s.particles.ids for s in sims])
    assert np.array_equal(np.sort(ids), np.arange(2000))


def test_load_stays_balanced(cfg):
    ps = plummer_model(4000, seed=62)
    sims = run_parallel_simulation(4, ps, cfg, n_steps=2)
    counts = np.array([s.particles.n for s in sims])
    assert counts.max() <= 1.35 * counts.mean()


def test_history_recorded(cfg):
    ps = plummer_model(1500, seed=63)
    sims = run_parallel_simulation(2, ps, cfg, n_steps=2)
    for s in sims:
        assert len(s.history) == 2
        assert s.history[0].counts.n_pp > 0
        assert s.history[0].domain_update > 0


def test_serial_decomposition_method_works(cfg):
    ps = plummer_model(1500, seed=64)
    sims = run_parallel_simulation(2, ps, cfg, n_steps=1,
                                   decomposition_method="serial")
    assert sum(s.particles.n for s in sims) == 1500


def test_direct_oracle_rejected_on_many_ranks():
    """``force_method="direct"`` is the one-rank O(N^2) oracle; on more
    ranks it used to be ignored and the tree code ran instead."""
    ps = plummer_model(64, seed=63)
    direct = SimulationConfig(force_method="direct", softening=0.02, dt=0.01)
    with pytest.raises(ValueError, match=r'force_method="direct".* 2 ranks'):
        run_parallel_simulation(2, ps, direct)
    (one,) = run_parallel_simulation(1, ps, direct)
    assert one.history[0].counts.n_pc == 0
    assert one.history[0].counts.n_pp == 2 * ps.n * (ps.n - 1)


def test_fewer_particles_than_ranks_fails_typed():
    """N < P names the empty rank, the step and the phase instead of a
    wrapped 'cannot bound zero particles' from the box reduction."""
    from repro.parallel import EmptyDomainError
    with pytest.raises(EmptyDomainError) as ei:
        run_parallel_simulation(4, plummer_model(3, seed=64),
                                transport="threads", timeout=30.0)
    err = ei.value
    assert isinstance(err, ValueError)
    assert (err.rank, err.step, err.phase) == (0, 0, "init")
    for name in ("rank 0", "step 0", "'init'"):
        assert name in str(err)
