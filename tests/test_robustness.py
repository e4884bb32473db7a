"""Robustness tests: extreme inputs, failure injection, edge geometries."""

import warnings

import numpy as np
import pytest

from repro import Simulation, SimulationConfig
from repro.gravity import direct_forces, tree_forces
from repro.octree import build_octree, compute_moments, make_groups
from repro.particles import ParticleSet
from repro.simmpi import SimWorld, spmd_run


def _forces(pos, mass, theta=0.5, eps=0.0):
    tree = build_octree(pos, nleaf=8)
    compute_moments(tree, pos, mass)
    make_groups(tree, 32)
    return tree_forces(tree, pos, mass, theta=theta, eps=eps)


def test_huge_coordinate_scale():
    """The tree must work at 1e12-scale coordinates (key mapping is
    relative to the bounding box, not absolute)."""
    rng = np.random.default_rng(97)
    pos = rng.normal(size=(500, 3)) * 1e12
    mass = np.ones(500)
    res = _forces(pos, mass, eps=1e10)
    acc_d, _ = direct_forces(pos, mass, eps=1e10)
    err = np.linalg.norm(res.acc - acc_d, axis=1) / np.linalg.norm(acc_d, axis=1)
    assert np.median(err) < 1e-2


def test_tiny_coordinate_scale():
    rng = np.random.default_rng(98)
    pos = rng.normal(size=(500, 3)) * 1e-12
    mass = np.ones(500)
    res = _forces(pos, mass, eps=1e-14)
    acc_d, _ = direct_forces(pos, mass, eps=1e-14)
    err = np.linalg.norm(res.acc - acc_d, axis=1) / np.linalg.norm(acc_d, axis=1)
    assert np.median(err) < 1e-2


def test_highly_anisotropic_distribution():
    """A needle-like distribution stresses the cubic-box key mapping."""
    rng = np.random.default_rng(99)
    pos = rng.normal(size=(2000, 3)) * [100.0, 0.01, 0.01]
    mass = np.ones(2000)
    res = _forces(pos, mass, eps=0.1)
    acc_d, _ = direct_forces(pos, mass, eps=0.1)
    err = np.linalg.norm(res.acc - acc_d, axis=1) / (np.linalg.norm(acc_d, axis=1) + 1e-300)
    assert np.median(err) < 2e-2


def test_all_particles_coincident():
    """Fully degenerate input must not crash or produce NaNs."""
    pos = np.zeros((50, 3))
    mass = np.ones(50)
    res = _forces(pos, mass, eps=0.1)
    assert np.all(np.isfinite(res.acc))
    assert np.allclose(res.acc, 0.0, atol=1e-10)  # symmetric cancellation


def test_two_distant_clusters():
    """A huge dynamic range of separations (1 vs 1e6)."""
    rng = np.random.default_rng(100)
    a = rng.normal(size=(300, 3))
    b = rng.normal(size=(300, 3)) + [1e6, 0, 0]
    pos = np.vstack([a, b])
    mass = np.ones(600)
    res = _forces(pos, mass, eps=0.01)
    acc_d, _ = direct_forces(pos, mass, eps=0.01)
    err = np.linalg.norm(res.acc - acc_d, axis=1) / np.linalg.norm(acc_d, axis=1)
    assert np.median(err) < 1e-2


def test_single_particle_simulation():
    ps = ParticleSet(pos=np.zeros((1, 3)), vel=np.ones((1, 3)),
                     mass=np.ones(1))
    sim = Simulation(ps, SimulationConfig(theta=0.5, softening=0.1, dt=0.5))
    sim.evolve(3)
    assert np.allclose(sim.particles.pos, 1.5)  # pure drift


def test_zero_mass_particles():
    """Massless tracers among massive particles."""
    rng = np.random.default_rng(101)
    pos = rng.normal(size=(200, 3))
    mass = np.ones(200)
    mass[100:] = 0.0
    res = _forces(pos, mass, eps=0.05)
    assert np.all(np.isfinite(res.acc))
    # tracers feel forces from the massive half
    assert np.linalg.norm(res.acc[100:], axis=1).min() > 0.0


def test_simmpi_deadlock_detection():
    """A rank waiting for a message nobody sends must time out, not hang."""
    world = SimWorld(2, timeout=0.5)

    def prog(comm):
        if comm.rank == 0:
            comm.recv(1, tag=42)   # never sent
        # rank 1 exits immediately

    with pytest.raises(RuntimeError, match="timeout"):
        spmd_run(2, prog, world=world, timeout=5.0)


def test_simmpi_one_rank_crashes_others_unblocked():
    """A crash on one rank aborts the collective instead of hanging."""
    world = SimWorld(3, timeout=10.0)

    def prog(comm):
        if comm.rank == 2:
            raise RuntimeError("injected fault")
        comm.barrier()   # must abort, not wait 10 s

    import time
    t0 = time.perf_counter()
    with pytest.raises(RuntimeError):
        spmd_run(3, prog, world=world, timeout=30.0)
    assert time.perf_counter() - t0 < 8.0


def test_nonfinite_positions_rejected_by_bbox():
    """A NaN/inf position raises, naming the particle, instead of turning
    into an arbitrary key -- on a fresh box and on a pinned one."""
    from repro.sfc import BoundingBox
    for bad in (np.nan, np.inf, -np.inf):
        pos = np.array([[0.0, 0, 0], [0.5, 1, 1], [1.0, bad, 1], [bad, 2, 2]])
        with pytest.raises(ValueError, match="particle index 2"):
            BoundingBox.from_positions(pos)
        box = BoundingBox.from_positions(pos[:2])
        with warnings.catch_warnings():
            warnings.simplefilter("error")      # no "invalid value in cast"
            for curve in ("hilbert", "morton"):
                with pytest.raises(ValueError, match="particle index 2"):
                    box.keys(pos, curve)
        assert len(box.keys(np.nan_to_num(pos, posinf=9.0, neginf=-9.0))) == 4


def test_finite_positions_far_outside_a_pinned_box_still_clip():
    """...even when their scaled coordinates sum past the float range."""
    from repro.sfc import BoundingBox
    box = BoundingBox(origin=np.zeros(3), size=1.0)
    far = np.full((4, 3), 1.0e301)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert np.all(box.keys(far) == box.keys(far[:1]))


def test_simulation_with_zero_softening():
    """eps = 0 is legal (the kernels guard self-pairs)."""
    rng = np.random.default_rng(102)
    ps = ParticleSet(pos=rng.normal(size=(100, 3)),
                     vel=np.zeros((100, 3)),
                     mass=np.full(100, 1e-3))
    sim = Simulation(ps, SimulationConfig(theta=0.5, softening=0.0, dt=1e-4))
    sim.step()
    assert np.all(np.isfinite(sim.particles.pos))
