"""Distributed gravity: local tree + boundary/LET exchange + partial sums.

The full "Compute gravity" phase of Table II, one stage per method of
:class:`_ForceStages`: every rank builds its local tree (a branch of the
hypothetical global octree, because all ranks share the global bounding
box); boundary trees with their domain AABBs are allgathered; each rank
decides, symmetrically and without communication, which remote ranks
can use its boundary directly and which (typically only the ~40 nearest
neighbours) need a full LET, sent point-to-point; and the forces are the
local-tree walk plus the remote contributions, every batch of arrived
structures concatenated into one
:class:`~repro.gravity.forest.SourceForest` and added to the rank's
:class:`~repro.gravity.treewalk.ForcePass` in a single walk, each
source's part of a group's list summed by itself in batch order.

``config.let_drain`` selects the LET consumption order.
``"incremental"`` (the default) walks the boundary batch while LETs are
still in flight, then takes the LETs in rank order, each as its own
batch: overlapped, and bitwise reproducible run to run and across
transports, because the per-source accumulation sequence is fixed.
``"opportunistic"`` batches whichever LETs have arrived (the paper's
"process them as they arrive"); interaction counts are unchanged but
float64 sums then depend on arrival order in the last bits.

Every sub-phase is timed into :attr:`DistributedForceResult.phases` and
emitted as a ``cat="phase"`` span with interaction counters attached
through one :class:`~repro.obs.tracer.PhaseClock` -- the *same* clock
readings, so the trace and the driver's
:class:`~repro.core.step.StepBreakdown` agree exactly.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from ..config import SimulationConfig
from ..gravity.flops import InteractionCounts
from ..gravity.forest import SourceForest
from ..gravity.treewalk import ForcePass, KernelWorkspace
from ..obs.tracer import PhaseClock
from ..octree import Octree, build_octree, compute_moments, compute_opening_radii, make_groups
from ..particles import ParticleSet
from ..sfc import BoundingBox, SortCache
from ..simmpi import SimComm
from .decomposition import EmptyDomainError
from .lettree import LETData, boundary_structure, boundary_sufficient_for, build_let_for_box

#: Message tag for LET payloads.
TAG_LET = 11


def _recv_let(comm: SimComm, src: int) -> LETData:
    """Receive one LET with an explicit, bounded deadline.

    Every LET receive goes through here so none of them inherits an
    unbounded wait: the deadline is the world's recv timeout, and a
    peer that died between the boundary-exchange barrier and its LET
    send surfaces as :class:`~repro.simmpi.errors.RankFailedError`
    within a few poll intervals (well before the deadline), never as a
    hang.  A live-but-stuck peer is bounded by
    :class:`~repro.simmpi.errors.RecvTimeoutError` at the deadline.
    """
    return comm.recv(source=src, tag=TAG_LET,
                     timeout=getattr(comm.world, "timeout", None))

#: Sub-phase keys of :attr:`DistributedForceResult.phases`.
FORCE_PHASES = ("tree_construction", "tree_properties", "boundary_exchange",
                "let_exchange", "gravity_local", "gravity_let",
                "non_hidden_comm")


@dataclasses.dataclass
class DistributedForceResult:
    """Per-rank output of a distributed force computation."""

    acc: np.ndarray
    phi: np.ndarray
    counts_local: InteractionCounts
    counts_let: InteractionCounts
    n_lets_sent: int
    n_lets_received: int
    let_bytes_sent: int
    boundary_bytes: int
    tree: Octree
    #: Wall-clock seconds this rank spent *blocked* waiting for LET
    #: messages -- the measured analogue of Table II's "Non-hidden LET
    #: comm" row.  LETs that arrived while the rank was walking other
    #: sources cost nothing here: that communication was hidden.
    recv_wait_seconds: float = 0.0
    #: Seconds per sub-phase (keys: :data:`FORCE_PHASES`); the driver
    #: maps these onto Table II's :class:`StepBreakdown` rows.
    phases: dict[str, float] = dataclasses.field(default_factory=dict)
    #: Peak frontier width (group, cell) pairs over every walk this
    #: rank ran this step (local + remote; the forest walk reports its
    #: combined peak).  Sizes the walk's transient memory high-water.
    max_frontier: int = 0

    @property
    def counts_total(self) -> InteractionCounts:
        """Combined local + LET interaction tally."""
        return self.counts_local + self.counts_let


class _ForceStages:
    """One rank's "Compute gravity" phase, a method per stage, in the
    order :func:`distributed_forces` runs them.  Every stage books its
    seconds into ``phases`` from the clock readings its span carries."""

    def __init__(self, comm: SimComm, particles: ParticleSet,
                 config: SimulationConfig, step: int | None):
        self.comm, self.particles, self.config = comm, particles, config
        self.clock = PhaseClock(comm, step)
        self.phases = dict.fromkeys(FORCE_PHASES, 0.0)
        self.counts_local = InteractionCounts(quadrupole=config.quadrupole)
        self.counts_let = InteractionCounts(quadrupole=config.quadrupole)
        self.max_frontier = 0

    def local_tree(self, global_box: BoundingBox, keys, sort_cache,
                   sort_epoch) -> None:
        """Tree-construction / Tree-properties."""
        ck, ph, cfg, ps = self.clock, self.phases, self.config, self.particles
        t0 = ck.now()
        if keys is None:
            keys = global_box.keys(ps.pos, cfg.curve)
        order = None if sort_cache is None \
            else sort_cache.order_for(keys, epoch=sort_epoch)
        self.tree = tree = build_octree(
            ps.pos, nleaf=cfg.nleaf, curve=cfg.curve, box=global_box,
            keys=keys, order=order)
        sort_attr = {} if order is None \
            else {"sort_mode": sort_cache.last_mode}
        ph["tree_construction"] += ck.rec("tree_construction", t0, ck.now(),
                                          **sort_attr)
        t0 = ck.now()
        compute_moments(tree, ps.pos, ps.mass)
        compute_opening_radii(tree, cfg.theta, cfg.mac)
        make_groups(tree, cfg.ncrit)
        self.spos = ps.pos[tree.order]
        self.smass = ps.mass[tree.order]
        ph["tree_properties"] += ck.rec("tree_properties", t0, ck.now())

    def boundary_exchange(self) -> None:
        """Allgather boundary trees (the paper's ``MPI_Allgatherv``), then
        the symmetric sufficiency checks: whose boundary is enough for
        me, and who needs my full LET."""
        ck, comm, tree = self.clock, self.comm, self.tree
        t0 = ck.now()
        self.boundary = mine = boundary_structure(tree, self.spos, self.smass)
        my_aabb = (tree.bmin[0].copy(), tree.bmax[0].copy())
        comm.set_phase("boundary_exchange")
        gathered = comm.allgather((mine, my_aabb))
        self.boundaries = [g[0] for g in gathered]
        self.aabbs = [g[1] for g in gathered]
        others = [r for r in range(comm.size) if r != comm.rank]
        self.need_full_from = [
            r for r in others
            if not boundary_sufficient_for(self.boundaries[r], *my_aabb)]
        self.must_send_to = [
            r for r in others
            if not boundary_sufficient_for(mine, *self.aabbs[r])]
        self.phases["boundary_exchange"] += ck.rec(
            "boundary_exchange", t0, ck.now(), bytes=mine.nbytes)

    def let_exchange(self) -> None:
        """Build and send a full LET to every rank that needs one."""
        ck, comm = self.clock, self.comm
        t0 = ck.now()
        comm.set_phase("let_exchange")
        self.let_bytes = 0
        for r in self.must_send_to:
            let = build_let_for_box(self.tree, self.spos, self.smass,
                                    np.asarray(self.aabbs[r][0]),
                                    np.asarray(self.aabbs[r][1]))
            self.let_bytes += let.nbytes
            comm.send(let, dest=r, tag=TAG_LET)
        self.phases["let_exchange"] += ck.rec(
            "let_exchange", t0, ck.now(), n_lets=len(self.must_send_to),
            bytes=self.let_bytes)

    def local_walk(self, workspace, backend) -> None:
        """The local tree first (the GPU starts on local work while
        LETs arrive)."""
        ck, cfg = self.clock, self.config
        self.comm.set_phase("gravity")
        self.force = fp = ForcePass(
            self.tree, self.spos, cfg.softening ** 2, cfg.quadrupole,
            cfg.chunk, cfg.precision, workspace,
            backend if backend is not None else cfg.backend)
        # Telemetry: non-default backends stamp their gravity spans (the
        # default stays unstamped so numpy traces are byte-identical to
        # the pre-registry era; perf_from_trace reads absence as "numpy").
        self.bk_attr = {} if fp.backend.name == "numpy" \
            else {"backend": fp.backend.name}
        t0 = ck.now()
        self.max_frontier = fp.add(self.tree, self.spos, self.smass,
                                   self.counts_local, exclude_self=True)
        self.phases["gravity_local"] += ck.rec(
            "gravity_local", t0, ck.now(), n_particles=self.particles.n,
            n_pp=self.counts_local.n_pp, n_pc=self.counts_local.n_pc,
            quadrupole=cfg.quadrupole, **self.bk_attr)

    def drain(self) -> None:
        """Remote contributions (Sec. III-B2).  Sufficient boundaries are
        available now, and walking them overlaps the LET sends still in
        flight.  "incremental" then takes the LETs in rank order, each as
        its own batch; "opportunistic" batches whichever have arrived and
        blocks (on the lowest pending rank) only when none has.  Only
        time spent blocked with nothing to process is non-hidden
        communication."""
        ck, comm, counts = self.clock, self.comm, self.counts_let
        batch = [(self.boundaries[r], r) for r in range(comm.size)
                 if r != comm.rank and r not in self.need_full_from]
        pending = list(self.need_full_from)
        while batch or pending:
            if self.config.let_drain == "opportunistic":
                for r in [r for r in pending if comm.iprobe(r, TAG_LET)]:
                    batch.append((_recv_let(comm, r), r))
                    pending.remove(r)
            if not batch:
                r = pending.pop(0)
                t0 = ck.now()
                batch.append((_recv_let(comm, r), r))
                self.phases["non_hidden_comm"] += ck.rec(
                    "non_hidden_comm", t0, ck.now(), src=r)
            # One frontier pass over every ``(source, rank)`` of the
            # batch, then one evaluation of the forest's pair lists: a
            # group's tile spans the lists of every source in the batch,
            # and each source's part is summed by itself, in batch order
            # -- so a source adds bitwise the same partial sums whatever
            # else shares its batch.
            pp0, pc0 = counts.n_pp, counts.n_pc
            t0 = ck.now()
            forest = SourceForest.concatenate([e[0] for e in batch],
                                              [e[1] for e in batch])
            self.max_frontier = max(self.max_frontier, self.force.add(
                forest, forest.part_pos, forest.part_mass, counts))
            self.phases["gravity_let"] += ck.rec(
                "gravity_let", t0, ck.now(), n_src=len(batch),
                n_pp=counts.n_pp - pp0, n_pc=counts.n_pc - pc0,
                **self.bk_attr)
            batch = []

    def book_metrics(self) -> None:
        """Book the per-rank measurement into the world's metrics
        registry.  These series are what the measured-cost load balancer
        (:mod:`repro.parallel.feedback`) consumes to close Sec. III-B1's
        feedback loop; they also make per-rank force cost scrapeable."""
        rank, phases = self.comm.rank, self.phases
        flops = (self.counts_local + self.counts_let).flops
        reg = self.comm.world.metrics
        phase_seconds = reg.counter(
            "force_phase_seconds_total",
            "Measured seconds per distributed-force sub-phase",
            labelnames=("rank", "phase"))
        for name in FORCE_PHASES:
            phase_seconds.inc(max(phases[name], 0.0), rank=rank, phase=name)
        reg.counter("force_flops_total",
                    "Tree-walk interaction flops per rank",
                    labelnames=("rank",)).inc(flops, rank=rank)
        from ..obs.perf import book_force_rate
        book_force_rate(reg, rank, flops,
                        max(phases["gravity_local"], 0.0)
                        + max(phases["gravity_let"], 0.0))
        reg.gauge("walk_max_frontier",
                  "Peak (group, cell) frontier width over this rank's tree "
                  "walks in the latest force computation",
                  labelnames=("rank",)).set(self.max_frontier, rank=rank)


def distributed_forces(comm: SimComm, particles: ParticleSet,
                       config: SimulationConfig,
                       global_box: BoundingBox,
                       step: int | None = None,
                       keys: np.ndarray | None = None,
                       sort_cache: SortCache | None = None,
                       workspace: KernelWorkspace | None = None,
                       sort_epoch: int | None = None,
                       backend=None,
                       ) -> DistributedForceResult:
    """Compute gravitational forces on this rank's particles.

    ``particles`` must already be domain-decomposed (each rank holds its
    own key interval, none empty: :class:`EmptyDomainError` otherwise).
    ``global_box`` must be identical on all ranks.
    ``step`` labels emitted trace spans (drivers pass their step count).

    ``keys`` are this rank's SFC keys for ``particles.pos`` if the
    driver already has them (e.g. carried through the exchange);
    ``sort_cache`` reuses the previous step's sort permutation (a cold
    sort when absent); ``workspace`` is a persistent
    :class:`KernelWorkspace` so steady-state evaluation allocates
    nothing (one is created locally when absent).

    ``backend`` is a resolved compute-backend instance (or a registered
    name; ``None`` resolves ``config.backend``) executing the
    interaction kernels -- walks, pair lists and interaction counts are
    backend-independent, so the cross-rank reduction is unchanged.

    ``sort_epoch`` is the driver's layout generation tag: passing a new
    value drops the sort cache's permutation so it never repairs across
    a particle relayout.

    Returns accelerations/potentials in this rank's particle order.
    """
    if particles.n == 0:
        raise EmptyDomainError(comm.rank, step, "tree_construction")
    st = _ForceStages(comm, particles, config, step)
    st.local_tree(global_box, keys, sort_cache, sort_epoch)
    st.boundary_exchange()
    st.let_exchange()
    st.local_walk(workspace, backend)
    st.drain()
    acc, phi = st.force.finish()
    st.book_metrics()
    return DistributedForceResult(
        acc=acc, phi=phi,
        counts_local=st.counts_local, counts_let=st.counts_let,
        n_lets_sent=len(st.must_send_to),
        n_lets_received=len(st.need_full_from),
        let_bytes_sent=st.let_bytes,
        boundary_bytes=st.boundary.nbytes,
        tree=st.tree,
        recv_wait_seconds=st.phases["non_hidden_comm"],
        phases=st.phases,
        max_frontier=int(st.max_frontier),
    )
