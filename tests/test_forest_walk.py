"""The distributed force pipeline: batched forest walks, tile evaluation,
float32 kernels and the two LET drains.

Float64 forces from the default (``"incremental"``) drain are bitwise
reproducible run to run and across transports with no tracer attached;
the forest walk's pair lists are exactly the per-source walks'; the tile
evaluator agrees with the flat-pair oracle to summation order; float32
and the arrival-order drain are bounded by the theta-scaled differential
envelope.
"""

import dataclasses

import numpy as np
import pytest

from repro import SimulationConfig
from repro.core.parallel_simulation import (
    ParallelSimulation,
    run_parallel_simulation,
)
from repro.gravity import SourceForest, tree_forces, walk_interaction_lists
from repro.gravity.forest import walk_forest_interaction_lists
from repro.gravity.treewalk import group_aabbs
from repro.ics import plummer_model
from repro.octree import (
    build_octree,
    compute_moments,
    compute_opening_radii,
    make_groups,
)
from repro.parallel import boundary_structure
from repro.sfc import BoundingBox
from repro.simmpi import spmd_run
from repro.testing.differential import (
    max_rel_difference,
    parallel_forces,
    serial_forces,
)

from .flat_pair_oracle import flat_tree_forces, split_by_source

N = 1024


def _cfg(**kw):
    base = dict(theta=0.5, softening=0.02, dt=0.01)
    base.update(kw)
    return SimulationConfig(**base)


def _forces(particles, config, n_ranks):
    """One distributed force evaluation: id-ordered ``acc``, ``phi`` and
    the per-rank (local pp, local pc, LET pp, LET pc) count tuples."""
    n = particles.n

    def prog(comm):
        lo = n * comm.rank // comm.size
        hi = n * (comm.rank + 1) // comm.size
        sim = ParallelSimulation(comm, particles.select(np.arange(lo, hi)),
                                 config)
        sim.prime()
        r = sim._result
        return (sim.particles.ids, sim._acc, sim._phi,
                (r.counts_local.n_pp, r.counts_local.n_pc,
                 r.counts_let.n_pp, r.counts_let.n_pc))

    results = spmd_run(n_ranks, prog, timeout=300.0)
    order = np.argsort(np.concatenate([r[0] for r in results]),
                       kind="stable")
    return (np.concatenate([r[1] for r in results])[order],
            np.concatenate([r[2] for r in results])[order],
            [r[3] for r in results])


# -- the default config is bitwise reproducible, untraced -------------------

def _untraced(particles, config, n_ranks, transport):
    """Two steps with no tracer attached; id-ordered (acc, phi) bytes and
    the per-rank, per-step interaction counts."""
    res = run_parallel_simulation(n_ranks, particles.copy(), config,
                                  n_steps=2, transport=transport,
                                  timeout=300.0)
    order = np.argsort(np.concatenate([r.particles.ids for r in res]),
                       kind="stable")
    acc = np.concatenate([r.acc for r in res])[order]
    phi = np.concatenate([r.phi for r in res])[order]
    counts = [tuple((bd.counts.n_pp, bd.counts.n_pc) for bd in r.history)
              for r in res]
    return acc.tobytes(), phi.tobytes(), counts


@pytest.mark.parametrize("n_ranks", [2, 4])
def test_default_config_untraced_is_bitwise_reproducible(n_ranks):
    """The rank-order drain fixes the accumulation sequence, so forces
    do not depend on LET arrival order: identical bytes run to run and
    threads == process, with no virtual clock to serialise anything."""
    particles = plummer_model(512, seed=28)
    first = _untraced(particles, _cfg(), n_ranks, "threads")
    assert _untraced(particles, _cfg(), n_ranks, "threads") == first
    assert _untraced(particles, _cfg(), n_ranks, "process") == first


def test_opportunistic_drain_inside_theta_envelope():
    """The arrival-order drain changes the summation order, never what
    is summed: the walk's counts are the rank-order drain's, and the
    (untraced, so genuinely racing) forces sit inside the serial
    oracle's envelope."""
    particles = plummer_model(N, seed=24)
    cfg = _cfg(let_drain="opportunistic")
    assert _forces(particles, cfg, 4)[2] == _forces(particles, _cfg(), 4)[2]
    acc, _ = parallel_forces(particles, cfg, 4)
    assert max_rel_difference(acc, serial_forces(particles, cfg)[0]) \
        < 0.3 * cfg.theta ** 2


def test_float32_bounded_by_theta_envelope():
    particles = plummer_model(N, seed=14)
    cfg64 = _cfg(precision="float64")
    cfg32 = _cfg(precision="float32")
    a64, _, c64 = _forces(particles, cfg64, 4)
    a32, _, c32 = _forces(particles, cfg32, 4)
    assert c32 == c64            # precision never changes the walk
    # f32 kernel round-off is orders below the tree's own MAC error;
    # the differential harness's worst-particle envelope bounds it.
    assert max_rel_difference(a32, a64) < 0.3 * cfg64.theta ** 2


# -- forest walk unit tests ----------------------------------------------

@pytest.fixture(scope="module")
def slabs():
    """A target tree plus three remote boundary structures, shared box."""
    rng = np.random.default_rng(7)
    pos = rng.normal(size=(4000, 3))
    mass = rng.uniform(0.5, 1.0, 4000)
    box = BoundingBox.from_positions(pos)
    parts = np.array_split(np.argsort(pos[:, 0], kind="stable"), 4)

    def make(idx):
        t = build_octree(pos[idx], nleaf=16, box=box)
        compute_moments(t, pos[idx], mass[idx])
        compute_opening_radii(t, 0.5, "bonsai")
        make_groups(t, 64)
        sp = pos[idx][t.order]
        sm = mass[idx][t.order]
        return t, sp, sm

    target, tsp, _ = make(parts[0])
    sources = [boundary_structure(*make(p)) for p in parts[1:]]
    gmin, gmax = group_aabbs(target, tsp)
    return sources, gmin, gmax


def test_forest_pairs_equal_per_source_walks(slabs):
    sources, gmin, gmax = slabs
    forest = SourceForest.concatenate(sources, ranks=range(1, 4))
    assert forest.n_sources == 3
    assert forest.n_cells == sum(len(s.mass) for s in sources)
    fpc_g, fpc_c, fpp_g, fpp_c, mf = walk_forest_interaction_lists(
        forest, gmin, gmax)
    pc_g, pc_c, pc_s = split_by_source(forest, fpc_g, fpc_c)
    pp_g, pp_c, pp_s = split_by_source(forest, fpp_g, fpp_c)
    assert mf >= 1
    for i, src in enumerate(sources):
        rpc_g, rpc_c, rpp_g, rpp_c, _ = walk_interaction_lists(
            src, gmin, gmax)
        off = forest.cell_offsets[i]
        a, b = pc_s[i], pc_s[i + 1]
        assert np.array_equal(pc_g[a:b], rpc_g)
        assert np.array_equal(pc_c[a:b] - off, rpc_c)
        a, b = pp_s[i], pp_s[i + 1]
        assert np.array_equal(pp_g[a:b], rpp_g)
        assert np.array_equal(pp_c[a:b] - off, rpp_c)


def test_forest_empty_pair_split(slabs):
    sources, _, _ = slabs
    forest = SourceForest.concatenate(sources, ranks=range(1, 4))
    e = np.empty(0, dtype=np.int64)
    pg, pc, starts = split_by_source(forest, e, e)
    assert len(pg) == 0 and len(pc) == 0
    assert np.array_equal(starts, np.zeros(4, dtype=np.int64))


def test_forest_rejects_zero_sources():
    with pytest.raises(ValueError):
        SourceForest.concatenate([], [])


# -- serial driver's evaluator --------------------------------------------

def test_serial_segment_matches_bincount():
    rng = np.random.default_rng(3)
    pos = rng.normal(size=(2500, 3))
    mass = rng.uniform(0.5, 1.0, 2500)
    tree = build_octree(pos, nleaf=16)
    compute_moments(tree, pos, mass)
    make_groups(tree, 64)
    a = tree_forces(tree, pos, mass, theta=0.5, eps=0.01)
    b = flat_tree_forces(tree, pos, mass, theta=0.5, eps=0.01)
    assert a.counts.n_pp == b.counts.n_pp
    assert a.counts.n_pc == b.counts.n_pc
    assert a.max_frontier == b.max_frontier
    np.testing.assert_allclose(a.acc, b.acc, rtol=1e-12, atol=1e-13)
    np.testing.assert_allclose(a.phi, b.phi, rtol=1e-12, atol=1e-13)


def test_config_validates_fast_path_knobs():
    with pytest.raises(ValueError):
        SimulationConfig(precision="float16")
    with pytest.raises(ValueError):
        SimulationConfig(chunk=0)
    with pytest.raises(ValueError):
        SimulationConfig(backend="fortran")
    for gone in ("auto", "deterministic", "eventually"):
        with pytest.raises(ValueError):
            SimulationConfig(let_drain=gone)
    assert SimulationConfig().let_drain == "incremental"
    SimulationConfig(let_drain="opportunistic", precision="float32")
    # A removed knob is a TypeError from the dataclass, not an alias.
    with pytest.raises(TypeError):
        SimulationConfig(batch_sources=True)


def test_config_knob_surface_is_pinned():
    """Adding a knob must edit this tuple: every independent option
    multiplies the pipelines the tests and the ledger have to cover."""
    names = tuple(f.name for f in dataclasses.fields(SimulationConfig))
    assert names == (
        "theta", "softening", "dt", "nleaf", "ncrit", "mac", "curve",
        "quadrupole", "force_method",
        "chunk", "precision", "backend", "let_drain",    # force pipeline
        "transport", "watchdog_grace")
