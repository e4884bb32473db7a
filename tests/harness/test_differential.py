"""Differential verification: serial vs. parallel forces, parametrized.

Runs the same seeded ICs (Plummer and Milky Way) through the serial
``Simulation`` and the distributed ``ParallelSimulation`` at 1/2/4/8
ranks and theta in {0.25, 0.5, 0.75}, asserting force agreement inside
calibrated theta-scaled envelopes and direct-summation accuracy for the
parallel result.  The heaviest combinations carry the ``harness_slow``
marker; ``make test-faults`` (or ``FULL=1 ./run_faults.sh``) runs the
complete matrix.
"""

import functools

import numpy as np
import pytest

from repro import SimulationConfig
from repro.core.parallel_simulation import run_parallel_simulation
from repro.ics import milky_way_model, plummer_model
from repro.simmpi.transport import make_world
from repro.testing import differential_force_report, parallel_forces

RANKS = (1, 2, 4, 8)
THETAS = (0.25, 0.5, 0.75)
#: Cross-transport equivalence matrix (the mpi4py shim needs mpiexec and
#: is exercised by its own opt-in test, not here).
TRANSPORT_RANKS = (1, 2, 4)


@functools.lru_cache(maxsize=None)
def _ic(name):
    if name == "plummer":
        return plummer_model(1536, seed=11)
    return milky_way_model(4096, seed=12)


def _cfg(theta):
    return SimulationConfig(theta=theta, softening=0.02, dt=0.01)


def _cases():
    for ic in ("plummer", "milky_way"):
        for theta in THETAS:
            for ranks in RANKS:
                # The theta=0.25 Milky Way rows are the expensive tail
                # (deep walks on a clustered disk at several rank
                # counts); keep one representative in the fast subset.
                slow = ic == "milky_way" and theta == 0.25 and ranks > 1
                marks = [pytest.mark.harness_slow] if slow else []
                yield pytest.param(ic, theta, ranks,
                                   id=f"{ic}-theta{theta}-r{ranks}",
                                   marks=marks)


@pytest.mark.parametrize("ic,theta,ranks", list(_cases()))
def test_parallel_forces_match_serial(ic, theta, ranks):
    report = differential_force_report(_ic(ic), _cfg(theta), ranks)
    report.assert_agrees()
    # The parametrized envelope is theta-scaled; pin the absolute floor
    # too so a silent pipeline regression cannot hide behind theta.
    assert report.max_rel < 0.1
    assert report.median_rel < report.median_tolerance
    if ranks == 1:
        # ``Simulation`` *is* the one-rank driver: no envelope, bitwise.
        assert report.max_rel == 0.0


def test_serial_decomposition_ablation_matches_too():
    """The ablation decomposition path feeds the same walk; its forces
    must satisfy the same envelopes."""
    ps = _ic("plummer")
    cfg = _cfg(0.5)
    acc_h, _ = parallel_forces(ps, cfg, 4, decomposition_method="hierarchical")
    acc_s, _ = parallel_forces(ps, cfg, 4, decomposition_method="serial")
    ref, _ = parallel_forces(ps, cfg, 1)
    for acc in (acc_h, acc_s):
        rel = (np.linalg.norm(acc - ref, axis=1)
               / (np.linalg.norm(ref, axis=1) + 1e-300))
        assert np.median(rel) < 5e-3
        assert rel.max() < 0.1


def test_differential_with_invariant_checks_enabled():
    """The mid-run invariant checkers must be silent on a healthy run
    (and not perturb the forces)."""
    ps = _ic("plummer")
    cfg = _cfg(0.5)
    acc_plain, _ = parallel_forces(ps, cfg, 4)
    acc_checked, _ = parallel_forces(ps, cfg, 4, invariant_checks=True)
    assert np.array_equal(acc_plain, acc_checked) or \
        np.max(np.abs(acc_plain - acc_checked)) < 1e-13


# --- cross-transport differential matrix --------------------------------
#
# The process transport must be *observationally indistinguishable* from
# the threaded reference: bitwise-equal float64 forces, identical
# interaction counts, identical logical traffic bytes.  Anything less
# means the transport swap changed the computation, not just where it
# ran.

def _transport_probe(ranks: int, transport: str, n_steps: int = 2):
    """One short run; returns (per-rank state, counts, traffic totals).

    Runs under a :class:`VirtualClock` tracer so the traffic and trace
    side of the comparison is logical, not wall-clock; the forces are
    bitwise either way (the default LET drain takes LETs in rank order).
    """
    from repro.obs import Tracer, VirtualClock
    world = make_world(ranks, transport=transport, timeout=120.0)
    sims = run_parallel_simulation(ranks, _ic("plummer"), _cfg(0.5),
                                   n_steps=n_steps, world=world,
                                   trace=Tracer(clock=VirtualClock()))
    state = [(np.asarray(s.particles.ids), s.particles.pos, s.acc, s.phi)
             for s in sims]
    counts = [[(b.counts.n_pp, b.counts.n_pc) for b in s.history]
              for s in sims]
    return state, counts, world.traffic.total_bytes, world.traffic.summary()


@pytest.mark.parametrize("ranks", TRANSPORT_RANKS)
def test_process_transport_bitwise_equal_to_threads(ranks):
    st_t, counts_t, bytes_t, summary_t = _transport_probe(ranks, "threads")
    st_p, counts_p, bytes_p, summary_p = _transport_probe(ranks, "process")
    for (ids_t, pos_t, acc_t, phi_t), (ids_p, pos_p, acc_p, phi_p) in \
            zip(st_t, st_p):
        assert np.array_equal(ids_t, ids_p)
        assert np.array_equal(pos_t, pos_p)
        assert np.array_equal(acc_t, acc_p)   # bitwise float64
        assert np.array_equal(phi_t, phi_p)
    assert counts_t == counts_p              # identical interaction counts
    assert bytes_t == bytes_p                # identical logical traffic
    assert summary_t == summary_p            # ... in every phase


@pytest.mark.parametrize("ranks", TRANSPORT_RANKS[1:])
def test_process_transport_force_primer_matches(ranks):
    """The `parallel_forces` harness itself runs on both substrates --
    untraced, and still bitwise: the default LET drain's accumulation
    order does not depend on arrival order."""
    ps = _ic("plummer")
    cfg = _cfg(0.5)
    acc_t, phi_t = parallel_forces(ps, cfg, ranks)
    acc_p, phi_p = parallel_forces(ps, cfg, ranks, transport="process")
    assert acc_p.tobytes() == acc_t.tobytes()
    assert phi_p.tobytes() == phi_t.tobytes()


def test_differential_report_on_process_transport():
    """Serial-vs-parallel accuracy envelopes hold over the process
    transport too (same walk, different substrate)."""
    report = differential_force_report(_ic("plummer"), _cfg(0.5), 2,
                                       transport="process")
    report.assert_agrees()
    assert report.max_rel < 0.1


def test_report_tolerances_scale_with_theta():
    ps = plummer_model(512, seed=3)
    r1 = differential_force_report(ps, _cfg(0.25), 2)
    r2 = differential_force_report(ps, _cfg(0.75), 2)
    assert r1.median_tolerance < r2.median_tolerance
    assert r1.max_tolerance < r2.max_tolerance
