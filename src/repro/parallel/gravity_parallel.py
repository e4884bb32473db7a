"""Distributed gravity: local tree + boundary/LET exchange + partial sums.

Implements the full "Compute gravity" phase of Table II:

1. every rank builds its local tree (a branch of the hypothetical global
   octree, because all ranks share the global bounding box);
2. boundary trees (with domain AABBs) are allgathered -- the paper's
   ``MPI_Allgatherv`` collective;
3. each rank evaluates, symmetrically and without communication, which
   remote ranks can use its boundary directly and which need a full LET
   (typically only the ~40 nearest neighbours);
4. full LETs are exchanged point-to-point;
5. forces are the sum of the local-tree walk plus the remote
   contributions: every batch of arrived structures (boundaries or
   LETs) is concatenated into one
   :class:`~repro.gravity.forest.SourceForest`, walked in a single pass
   and evaluated as one forest, each source's part of a group's list
   summed by itself in batch order.

``config.let_drain`` selects the LET consumption order.
``"incremental"`` (the default) walks the boundary batch while LETs are
still in flight, then takes the LETs in rank order, each as its own
batch: overlapped, and bitwise reproducible run to run and across
transports, because the per-source accumulation sequence is fixed.
``"opportunistic"`` batches whichever LETs have arrived (the paper's
"process them as they arrive"); interaction counts are unchanged but
float64 sums then depend on arrival order in the last bits.

Every sub-phase is timed into :attr:`DistributedForceResult.phases` and,
when the communicator's world carries an enabled tracer
(:mod:`repro.obs`), emitted as a ``cat="phase"`` span with interaction
counters attached, using the *same* clock readings -- so the trace and
the driver's :class:`~repro.core.step.StepBreakdown` agree exactly.
"""

from __future__ import annotations

import dataclasses
import time

import numpy as np

from ..config import SimulationConfig
from ..gravity.flops import InteractionCounts
from ..gravity.forest import SourceForest, walk_forest_interaction_lists
from ..gravity.treewalk import (
    KernelWorkspace,
    SourceView,
    evaluate_pc_pairs,
    evaluate_pp_pairs,
    group_aabbs,
    target_columns,
    walk_interaction_lists,
)
from ..octree import Octree, build_octree, compute_moments, compute_opening_radii, make_groups
from ..particles import ParticleSet
from ..sfc import BoundingBox, SortCache
from ..simmpi import SimComm
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
    own key interval).  ``global_box`` must be identical on all ranks.
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
    n = particles.n
    if n == 0:
        raise ValueError("distributed_forces requires a non-empty local set; "
                         "the 30% cap decomposition never empties a domain")

    tr = comm.tracer
    rank = comm.rank
    # One clock for both the phases dict and the trace spans: the
    # breakdown the driver books and the spans the report reduces are
    # the same measurement, never two drifting ones.
    if tr.enabled:
        def now() -> float:
            return tr.clock.now(rank)
    else:
        now = time.perf_counter
    phases = dict.fromkeys(FORCE_PHASES, 0.0)
    step_arg = {} if step is None else {"step": step}

    def rec(name: str, t0: float, t1: float, **attrs) -> None:
        phases[name] += t1 - t0
        if tr.enabled:
            tr.record(name, rank, t0, t1, cat="phase", **step_arg, **attrs)

    # --- local tree (Tree-construction / Tree-properties phases) ---------
    t0 = now()
    if keys is None:
        keys = global_box.keys(particles.pos, config.curve)
    order = None if sort_cache is None \
        else sort_cache.order_for(keys, epoch=sort_epoch)
    tree = build_octree(particles.pos, nleaf=config.nleaf,
                        curve=config.curve, box=global_box, keys=keys,
                        order=order)
    sort_attr = {} if order is None else {"sort_mode": sort_cache.last_mode}
    rec("tree_construction", t0, now(), **sort_attr)

    t0 = now()
    compute_moments(tree, particles.pos, particles.mass)
    compute_opening_radii(tree, config.theta, config.mac)
    make_groups(tree, config.ncrit)
    spos = particles.pos[tree.order]
    smass = particles.mass[tree.order]
    rec("tree_properties", t0, now())

    # --- boundary exchange (MPI_Allgatherv of boundary trees) -------------
    t0 = now()
    my_boundary = boundary_structure(tree, spos, smass)
    my_aabb = (tree.bmin[0].copy(), tree.bmax[0].copy())
    comm.set_phase("boundary_exchange")
    gathered = comm.allgather((my_boundary, my_aabb))
    boundaries = [g[0] for g in gathered]
    aabbs = [g[1] for g in gathered]

    # --- symmetric sufficiency checks --------------------------------------
    # (a) whose boundary is enough for me; (b) who needs my full LET.
    need_full_from = [r for r in range(comm.size) if r != comm.rank
                      and not boundary_sufficient_for(boundaries[r], *my_aabb)]
    must_send_to = [r for r in range(comm.size) if r != comm.rank
                    and not boundary_sufficient_for(my_boundary, *aabbs[r])]
    rec("boundary_exchange", t0, now(), bytes=my_boundary.nbytes)

    # --- LET exchange -------------------------------------------------------
    t0 = now()
    comm.set_phase("let_exchange")
    let_bytes = 0
    for r in must_send_to:
        let = build_let_for_box(tree, spos, smass,
                                np.asarray(aabbs[r][0]), np.asarray(aabbs[r][1]))
        let_bytes += let.nbytes
        comm.send(let, dest=r, tag=TAG_LET)
    rec("let_exchange", t0, now(), n_lets=len(must_send_to), bytes=let_bytes)

    # --- force computation ---------------------------------------------------
    comm.set_phase("gravity")
    eps2 = config.softening ** 2
    # p-c and p-p sums are kept apart until the end: each then receives
    # its contributions source by source in the same sequence whether a
    # source is evaluated alone or as part of a batch.
    acc_sorted, acc_pp = np.zeros((n, 3)), np.zeros((n, 3))
    phi_sorted, phi_pp = np.zeros(n), np.zeros(n)
    counts_local = InteractionCounts(quadrupole=config.quadrupole)
    counts_let = InteractionCounts(quadrupole=config.quadrupole)
    gmin, gmax = group_aabbs(tree, spos)

    from ..gravity.backends import get_backend
    be = get_backend(backend if backend is not None else config.backend)
    # Telemetry: non-default backends stamp their gravity spans (the
    # default stays unstamped so numpy traces are byte-identical to the
    # pre-registry era; perf_from_trace reads absence as "numpy").
    bk_attr = {} if be.name == "numpy" else {"backend": be.name}
    ws = workspace if workspace is not None else be.make_workspace(
        config.chunk, config.precision)
    ws.ensure(config.chunk)
    eval_kw = dict(chunk=config.chunk, workspace=ws,
                   tview=target_columns(spos), backend=be)

    def evaluate(source, part_pos, part_mass, lists, counts,
                 exclude_self=False) -> None:
        # ``source`` is the local tree or a forest of remote structures
        # (whose sources' lists the tile evaluator concatenates per
        # group and sums separately, in forest order).
        pc_g, pc_c, pp_g, pp_c = lists
        sview = SourceView.build(source, spos=part_pos, smass=part_mass)
        evaluate_pc_pairs(acc_sorted, phi_sorted, spos, source, pc_g, pc_c,
                          tree.group_first, tree.group_count, eps2,
                          config.quadrupole, counts, sview=sview, **eval_kw)
        evaluate_pp_pairs(acc_pp, phi_pp, spos, part_pos, part_mass,
                          pp_g, pp_c, tree.group_first, tree.group_count,
                          source.body_first, source.body_count, eps2, counts,
                          exclude_self=exclude_self, sview=sview, **eval_kw)

    # Local tree first (the GPU starts on local work while LETs arrive).
    t0 = now()
    *lists, max_frontier = walk_interaction_lists(tree, gmin, gmax)
    evaluate(tree, spos, smass, lists, counts_local, exclude_self=True)
    rec("gravity_local", t0, now(), n_particles=n,
        n_pp=counts_local.n_pp, n_pc=counts_local.n_pc,
        quadrupole=config.quadrupole, **bk_attr)

    def walk_batch(entries: list) -> None:
        # One frontier pass over every source in the batch (``entries``
        # is a list of ``(source, rank)`` pairs), then one evaluation of
        # the forest's pair lists: a group's tile spans the lists of
        # every source in the batch, and each source's part is summed by
        # itself, in batch order -- so a source adds bitwise the same
        # partial sums whatever else shares its batch.
        nonlocal max_frontier
        pp0, pc0 = counts_let.n_pp, counts_let.n_pc
        t0 = now()
        forest = SourceForest.concatenate([e[0] for e in entries],
                                          [e[1] for e in entries])
        *lists, mf = walk_forest_interaction_lists(forest, gmin, gmax)
        max_frontier = max(max_frontier, mf)
        evaluate(forest, forest.part_pos, forest.part_mass, lists,
                 counts_let)
        rec("gravity_let", t0, now(), n_src=len(entries),
            n_pp=counts_let.n_pp - pp0, n_pc=counts_let.n_pc - pc0,
            **bk_attr)

    # Remote contributions (Sec. III-B2).  Sufficient boundaries are
    # available now, and walking them overlaps the LET sends still in
    # flight.  "incremental" then takes the LETs in rank order, each as
    # its own batch; "opportunistic" batches whichever have arrived and
    # blocks (on the lowest pending rank) only when none has.  Only time
    # spent blocked with nothing to process is non-hidden communication.
    batch = [(boundaries[r], r) for r in range(comm.size)
             if r != comm.rank and r not in need_full_from]
    pending = list(need_full_from)
    while batch or pending:
        if config.let_drain == "opportunistic":
            for r in [r for r in pending if comm.iprobe(r, TAG_LET)]:
                batch.append((_recv_let(comm, r), r))
                pending.remove(r)
        if not batch:
            r = pending.pop(0)
            t0 = now()
            batch.append((_recv_let(comm, r), r))
            rec("non_hidden_comm", t0, now(), src=r)
        walk_batch(batch)
        batch = []

    acc_sorted += acc_pp
    phi_sorted += phi_pp
    acc = np.empty_like(acc_sorted)
    phi = np.empty_like(phi_sorted)
    acc[tree.order] = acc_sorted
    phi[tree.order] = phi_sorted

    # Book the per-rank measurement into the world's metrics registry.
    # These series are what the measured-cost load balancer
    # (:mod:`repro.parallel.feedback`) consumes to close Sec. III-B1's
    # feedback loop; they also make per-rank force cost scrapeable.
    reg = comm.world.metrics
    phase_seconds = reg.counter(
        "force_phase_seconds_total",
        "Measured seconds per distributed-force sub-phase",
        labelnames=("rank", "phase"))
    for name in FORCE_PHASES:
        phase_seconds.inc(max(phases[name], 0.0), rank=rank, phase=name)
    reg.counter("force_flops_total",
                "Tree-walk interaction flops per rank",
                labelnames=("rank",)).inc(
        (counts_local + counts_let).flops, rank=rank)
    from ..obs.perf import book_force_rate
    book_force_rate(reg, rank, (counts_local + counts_let).flops,
                    max(phases["gravity_local"], 0.0)
                    + max(phases["gravity_let"], 0.0))
    reg.gauge("walk_max_frontier",
              "Peak (group, cell) frontier width over this rank's tree "
              "walks in the latest force computation",
              labelnames=("rank",)).set(max_frontier, rank=rank)

    return DistributedForceResult(
        acc=acc, phi=phi,
        counts_local=counts_local, counts_let=counts_let,
        n_lets_sent=len(must_send_to),
        n_lets_received=len(need_full_from),
        let_bytes_sent=let_bytes,
        boundary_bytes=my_boundary.nbytes,
        tree=tree,
        recv_wait_seconds=phases["non_hidden_comm"],
        phases=phases,
        max_frontier=int(max_frontier),
    )
