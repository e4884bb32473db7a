"""Tests for the distributed force computation (the paper's core loop)."""

import numpy as np
import pytest

from repro.config import SimulationConfig
from repro.gravity import direct_forces, tree_forces
from repro.ics import milky_way_model, plummer_model
from repro.octree import build_octree, compute_moments, make_groups
from repro.parallel import distributed_forces, domain_update, exchange_particles
from repro.sfc import BoundingBox
from repro.simmpi import SimWorld, spmd_run


def _run_distributed(ps, cfg, n_ranks, world=None):
    """Decompose, exchange and compute forces; returns per-rank results."""
    box = BoundingBox.from_positions(ps.pos)
    n = ps.n

    def prog(comm):
        lo = n * comm.rank // comm.size
        hi = n * (comm.rank + 1) // comm.size
        local = ps.select(np.arange(lo, hi))
        keys = box.keys(local.pos, cfg.curve)
        order = np.argsort(keys)
        local.reorder(order)
        decomp = domain_update(comm, keys[order], rate2=0.1)
        local = exchange_particles(comm, local, keys[order], decomp)
        res = distributed_forces(comm, local, cfg, box)
        return local, res

    return spmd_run(n_ranks, prog, world=world)


def _assemble(results):
    ids = np.concatenate([r[0].ids for r in results])
    acc = np.concatenate([r[1].acc for r in results])
    phi = np.concatenate([r[1].phi for r in results])
    order = np.argsort(ids)
    return acc[order], phi[order]


@pytest.fixture(scope="module")
def plummer_case():
    ps = plummer_model(6000, seed=56)
    cfg = SimulationConfig(theta=0.5, softening=0.02, dt=0.01)
    acc_d, phi_d = direct_forces(ps.pos, ps.mass, eps=cfg.softening)
    return ps, cfg, acc_d, phi_d


@pytest.mark.parametrize("n_ranks", [2, 4, 7])
def test_matches_direct_any_rank_count(plummer_case, n_ranks):
    ps, cfg, acc_d, _ = plummer_case
    results = _run_distributed(ps, cfg, n_ranks)
    acc, _ = _assemble(results)
    err = np.linalg.norm(acc - acc_d, axis=1) / np.linalg.norm(acc_d, axis=1)
    assert np.median(err) < 5e-4
    assert err.max() < 0.05


def test_matches_single_rank_tree_accuracy(plummer_case):
    """The distributed walk must be as accurate as the serial tree."""
    ps, cfg, acc_d, _ = plummer_case
    results = _run_distributed(ps, cfg, 4)
    acc, _ = _assemble(results)
    tree = build_octree(ps.pos, nleaf=cfg.nleaf)
    compute_moments(tree, ps.pos, ps.mass)
    make_groups(tree, cfg.ncrit)
    serial = tree_forces(tree, ps.pos, ps.mass, theta=cfg.theta,
                         eps=cfg.softening)
    err_par = np.median(np.linalg.norm(acc - acc_d, axis=1)
                        / np.linalg.norm(acc_d, axis=1))
    err_ser = np.median(np.linalg.norm(serial.acc - acc_d, axis=1)
                        / np.linalg.norm(acc_d, axis=1))
    assert err_par < 3.0 * err_ser


def test_potentials_match_direct(plummer_case):
    ps, cfg, _, phi_d = plummer_case
    results = _run_distributed(ps, cfg, 3)
    _, phi = _assemble(results)
    err = np.abs((phi - phi_d) / phi_d)
    assert np.median(err) < 1e-3


def test_interaction_counts_comparable_to_serial(plummer_case):
    ps, cfg, _, _ = plummer_case
    results = _run_distributed(ps, cfg, 4)
    pp = sum(r[1].counts_total.n_pp for r in results)
    pc = sum(r[1].counts_total.n_pc for r in results)
    tree = build_octree(ps.pos, nleaf=cfg.nleaf)
    compute_moments(tree, ps.pos, ps.mass)
    make_groups(tree, cfg.ncrit)
    serial = tree_forces(tree, ps.pos, ps.mass, theta=cfg.theta,
                         eps=cfg.softening)
    assert pp == pytest.approx(serial.counts.n_pp, rel=0.15)
    assert pc == pytest.approx(serial.counts.n_pc, rel=0.25)


def test_let_traffic_recorded(plummer_case):
    ps, cfg, _, _ = plummer_case
    world = SimWorld(4)
    _run_distributed(ps, cfg, 4, world=world)
    s = world.traffic.summary()
    assert s["boundary_exchange"]["bytes"] > 0
    # With 4 ranks everyone is a near neighbour: full LETs flow.
    assert s["let_exchange"]["bytes"] > 0


def test_milky_way_distributed_forces():
    """The production workload shape: disk + bulge + halo geometry."""
    ps = milky_way_model(8000, seed=57)
    cfg = SimulationConfig(theta=0.5, softening=0.05, dt=0.1)
    results = _run_distributed(ps, cfg, 4)
    acc, _ = _assemble(results)
    acc_d, _ = direct_forces(ps.pos, ps.mass, eps=cfg.softening)
    err = np.linalg.norm(acc - acc_d, axis=1) / np.linalg.norm(acc_d, axis=1)
    assert np.median(err) < 1e-3


def test_lets_sent_count_reasonable(plummer_case):
    ps, cfg, _, _ = plummer_case
    results = _run_distributed(ps, cfg, 4)
    for _, res in results:
        assert 0 <= res.n_lets_sent <= 3
        assert res.n_lets_received == res.n_lets_sent  # symmetric checks


def test_empty_local_set_rejected():
    from repro.parallel import EmptyDomainError
    from repro.particles import ParticleSet

    def prog(comm):
        cfg = SimulationConfig()
        box = BoundingBox(origin=np.zeros(3), size=1.0)
        distributed_forces(comm, ParticleSet.empty(), cfg, box)

    with pytest.raises(RuntimeError) as ei:
        spmd_run(2, prog)
    cause = ei.value.__cause__
    assert isinstance(cause, EmptyDomainError)
    assert cause.step is None and cause.phase == "tree_construction"
