"""Fault schedules vs the two LET drains.

The rank-order (``"incremental"``) drain consumes remote trees through
blocking per-source receives while sends are still in flight; the
arrival-order (``"opportunistic"``) drain probes for whatever is ready.
Both are surface area for transport misbehaviour: maskable schedules
must stay transparent, a crash mid-drain must surface as the typed error
fast, and under the rank-order drain reordered LET arrivals may not
change a single bit of the forces.
"""

import time

import numpy as np
import pytest

from repro import SimulationConfig
from repro.config import LET_DRAIN_MODES
from repro.core.parallel_simulation import (
    gather_particles,
    run_parallel_simulation,
)
from repro.faults import FaultyWorld
from repro.ics import plummer_model
from repro.simmpi import RankFailedError
from repro.testing import max_rel_difference, parallel_forces

#: Every maskable fault kind at once (mirrors tests/harness/test_faults).
MASKABLE = "delay(prob=0.3, max=1ms); reorder(prob=0.5); duplicate(prob=0.25)"


@pytest.fixture(scope="module")
def ps():
    return plummer_model(1536, seed=11)


@pytest.fixture(scope="module", params=LET_DRAIN_MODES)
def cfg(request):
    return SimulationConfig(theta=0.5, softening=0.02, dt=0.01,
                            let_drain=request.param)


def test_maskable_faults_transparent_to_the_drain(ps, cfg):
    """Delay+reorder+duplicate: forces match the fault-free run to
    machine precision and every fault kind actually fired."""
    acc_clean, phi_clean = parallel_forces(ps, cfg, 4)
    world = FaultyWorld(4, MASKABLE, seed=123, timeout=60.0)
    acc_faulty, phi_faulty = parallel_forces(ps, cfg, 4, world=world)
    assert max_rel_difference(acc_faulty, acc_clean) < 1e-12
    assert np.max(np.abs(phi_faulty - phi_clean)
                  / (np.abs(phi_clean) + 1e-300)) < 1e-12
    for kind in ("delay", "reorder", "duplicate"):
        assert world.stats.count(kind) > 0, f"{kind} never fired"


def test_reordered_let_arrivals_do_not_change_forces(ps):
    """An aggressive reorder-only schedule against the default config:
    the drain takes LETs in rank order via blocking per-source receives,
    so arbitrary arrival permutations must be invisible -- and invisible
    *bitwise*, because the accumulation sequence is fixed."""
    cfg = SimulationConfig(theta=0.5, softening=0.02, dt=0.01)
    acc_clean, phi_clean = parallel_forces(ps, cfg, 4)
    world = FaultyWorld(4, "reorder(prob=0.9)", seed=7, timeout=60.0)
    acc_r, phi_r = parallel_forces(ps, cfg, 4, world=world)
    assert world.stats.count("reorder") > 0
    assert acc_r.tobytes() == acc_clean.tobytes()
    assert phi_r.tobytes() == phi_clean.tobytes()


@pytest.mark.parametrize("victim", [1, 2])
def test_crash_mid_drain_raises_typed_error(ps, cfg, victim):
    """A rank dying while its peers sit in the drain's receives must
    surface as RankFailedError well inside the timeout -- the overlap
    can't turn a crash into a hang."""
    world = FaultyWorld(4, f"crash(rank={victim}, after=10)", timeout=8.0)
    t0 = time.monotonic()
    with pytest.raises(RankFailedError) as ei:
        parallel_forces(ps, cfg, 4, world=world, timeout=60.0)
    elapsed = time.monotonic() - t0
    assert ei.value.failed_rank == victim
    assert elapsed < 30.0, f"crash took {elapsed:.1f}s to surface"


@pytest.mark.harness_slow
def test_eight_rank_evolution_under_faults(ps, cfg):
    """8 ranks, three full steps, maskable schedule: final positions
    match the fault-free evolution."""
    sims = run_parallel_simulation(8, ps.copy(), cfg, n_steps=3)
    clean = gather_particles(sims)
    world = FaultyWorld(8, MASKABLE, seed=321, timeout=120.0)
    sims_f = run_parallel_simulation(8, ps.copy(), cfg, n_steps=3,
                                     world=world, invariant_checks=True)
    faulty = gather_particles(sims_f)
    scale = np.linalg.norm(clean.pos, axis=1).mean()
    assert np.max(np.linalg.norm(faulty.pos - clean.pos, axis=1)) \
        < 1e-12 * scale
