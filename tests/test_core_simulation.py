"""Tests for Simulation, the caller-order front of the one driver."""

import inspect

import numpy as np
import pytest

from repro import ParallelSimulation, Simulation, SimulationConfig
from repro.core.parallel_simulation import run_parallel_simulation
from repro.core.step import TABLE2_PHASES
from repro.ics import plummer_model
from repro.parallel import EmptyDomainError
from repro.particles import ParticleSet


@pytest.fixture()
def sim():
    return Simulation(plummer_model(1500, seed=58),
                      SimulationConfig(theta=0.5, softening=0.02, dt=0.01))


def test_step_advances_time(sim):
    sim.step()
    assert sim.time == pytest.approx(0.01)
    assert sim.step_count == 1
    sim.evolve(3)
    assert sim.step_count == 4


def test_energy_conserved_over_run(sim):
    e0 = sim.diagnostics().total
    sim.evolve(30)
    e1 = sim.diagnostics().total
    assert abs((e1 - e0) / e0) < 1e-3


def test_momentum_conserved(sim):
    sim.evolve(10)
    assert np.allclose(sim.particles.momentum(), 0.0, atol=1e-6)


def test_breakdown_recorded(sim):
    bd = sim.step()
    assert bd.total > 0
    assert bd.gravity_local > 0
    assert bd.tree_construction > 0
    assert bd.counts.n_pp > 0
    assert bd.n_particles == 1500
    assert len(sim.history) == 1


def test_breakdown_dict_has_table2_phases(sim):
    bd = sim.step()
    d = bd.as_dict()
    assert tuple(d.keys()) == TABLE2_PHASES


def test_performance_rates(sim):
    bd = sim.step()
    assert bd.gpu_tflops() > 0
    assert bd.application_tflops() <= bd.gpu_tflops()


def test_config_defaults_are_paper_values():
    cfg = SimulationConfig()
    assert cfg.theta == 0.4
    assert cfg.nleaf == 16
    assert cfg.curve == "hilbert"
    assert cfg.mac == "bonsai"
    assert cfg.quadrupole is True


def test_config_validation():
    with pytest.raises(ValueError):
        SimulationConfig(theta=-1)
    with pytest.raises(ValueError):
        SimulationConfig(dt=0)
    with pytest.raises(ValueError):
        SimulationConfig(softening=-0.1)
    with pytest.raises(ValueError):
        SimulationConfig(mac="fmm")
    with pytest.raises(ValueError):
        SimulationConfig(curve="lebesgue")


def test_callback(sim):
    times = []
    sim.evolve(3, callback=lambda s: times.append(s.time))
    assert len(times) == 3
    assert times == sorted(times)


def test_forces_available_after_step(sim):
    sim.step()
    assert sim.acceleration.shape == (1500, 3)
    assert sim.potential.shape == (1500,)
    assert np.all(sim.potential < 0)


def test_bound_cluster_stays_bound(sim):
    sim.evolve(20)
    r = np.linalg.norm(sim.particles.pos, axis=1)
    assert np.median(r) < 5.0


def test_class_docstring_example_runs():
    """The usage example in Simulation's docstring must stay true."""
    import doctest
    from repro.core import simulation as mod
    results = doctest.testmod(mod, verbose=False)
    assert results.failed == 0
    assert results.attempted >= 1


def test_direct_force_method_breakdown(small_plummer):
    sim = Simulation(small_plummer.copy(),
                     SimulationConfig(force_method="direct", softening=0.02,
                                      dt=0.01))
    bd = sim.step()
    assert bd.counts.n_pc == 0
    assert bd.counts.n_pp > 0
    assert bd.tree_construction == 0.0
    assert bd.gravity_local > 0.0


# -- one driver: Simulation is the one-rank case ------------------------------

@pytest.mark.parametrize("curve", ["hilbert", "morton"])
def test_simulation_is_bitwise_the_one_rank_driver(curve):
    """Same state by id, same interaction counts and the same Table II
    rows as ``run_parallel_simulation(1, ...)``: there is one step loop."""
    cfg = SimulationConfig(theta=0.5, softening=0.02, dt=0.01, curve=curve)
    ps = plummer_model(700, seed=21)
    sim = Simulation(ps.copy(), cfg)
    sim.evolve(3)
    (rank,) = run_parallel_simulation(1, ps.copy(), cfg, n_steps=3)
    by_id = np.argsort(rank.particles.ids)
    for front, driver in ((sim.particles.pos, rank.particles.pos),
                          (sim.particles.vel, rank.particles.vel),
                          (sim.acceleration, rank.acc),
                          (sim.potential, rank.phi)):
        assert front.tobytes() == driver[by_id].tobytes()
    assert len(sim.history) == len(rank.history) == 3
    for a, b in zip(sim.history, rank.history):
        assert a.counts == b.counts and a.counts.n_pc > 0
        rows = {k for k, v in a.as_dict().items() if v != 0.0}
        assert rows == {k for k, v in b.as_dict().items() if v != 0.0}
        assert rows == set(TABLE2_PHASES) - {"gravity_let", "non_hidden_comm"}


def test_order_contract_particles_stay_the_callers():
    """``sim.particles`` *is* the caller's set, updated in place, in the
    caller's order, ids untouched -- whatever order the driver keeps."""
    ps = plummer_model(300, seed=22)
    ps.reorder(np.random.default_rng(0).permutation(ps.n))
    ps.ids = ps.ids * 7 + 3                 # ids need not be row numbers
    ids0, pos0 = ps.ids.copy(), ps.pos.copy()
    cfg = SimulationConfig(theta=0.5, softening=0.02, dt=0.01)
    sim = Simulation(ps, cfg)
    acc, phi = sim.compute_forces()
    assert acc is sim.acceleration and phi is sim.potential
    assert np.array_equal(ps.pos, pos0)     # a force pass moves nothing
    sim.evolve(2)
    assert sim.particles is ps and np.array_equal(ps.ids, ids0)
    # Row i is still particle i: one step displaces it by ~v dt.
    assert np.max(np.abs(ps.pos - pos0)) < 0.1
    ref = Simulation(plummer_model(300, seed=22), cfg)
    ref.evolve(2)
    by_id = np.argsort((ids0 - 3) // 7)
    assert ps.pos[by_id].tobytes() == ref.particles.pos.tobytes()
    assert sim.acceleration[by_id].tobytes() == ref.acceleration.tobytes()


def test_empty_particle_set_fails_typed():
    with pytest.raises(EmptyDomainError) as ei:
        Simulation(ParticleSet.empty())
    assert (ei.value.rank, ei.value.step) == (0, 0)
    assert "rank 0" in str(ei.value) and "step 0" in str(ei.value) \
        and ei.value.phase in str(ei.value)


def test_driver_surface_is_pinned():
    """One driver, no new knob: the refactor that made ``Simulation`` the
    one-rank case added no keyword or constructor parameter (the config
    fields are pinned by ``test_config_knob_surface_is_pinned``)."""
    def params(fn):
        return tuple(inspect.signature(fn).parameters)
    assert params(Simulation.__init__) == (
        "self", "particles", "config", "trace", "trace_sink")
    assert params(ParallelSimulation.__init__) == (
        "self", "comm", "particles", "config", "decomposition_method",
        "sample_rate1", "sample_rate2", "load_balance", "lb_source",
        "lb_alpha", "lb_trigger_ratio", "invariant_checks", "trace", "health")
    assert params(run_parallel_simulation) == (
        "n_ranks", "particles", "config", "n_steps", "decomposition_method",
        "timeout", "world", "load_balance", "lb_source", "lb_alpha",
        "lb_trigger_ratio", "invariant_checks", "trace", "trace_sink",
        "on_step", "transport", "health")
