"""The simulation driver, one step loop at any rank count (Sec. III-B).

:class:`~repro.core.simulation.Simulation` is this driver on one rank.
Each step performs exactly the paper's pipeline:

1. trailing half-kick of the previous step (KDK),
2. drift,
3. global bounding box reduction (CPUs combine local GPU boxes),
4. Peano-Hilbert keys + local sort ("Sorting SFC"),
5. hierarchical-sampling domain update + particle exchange,
6. local tree build / moments ("Tree-construction" / "Tree-properties"),
7. boundary allgather, symmetric sufficiency checks, LET exchange and
   the local + per-LET force walks ("Compute gravity"),
8. leading half-kick.

Forces are computed on the post-exchange layout, and both half-kicks of
a force evaluation run on that same layout, so the integrator remains a
well-defined KDK leap-frog even though particles migrate between ranks.

When constructed with ``trace=`` (a :class:`repro.obs.Tracer`) -- or on
a world that already carries one -- every pipeline phase is emitted as a
per-rank span using the same clock readings booked into the
:class:`StepBreakdown`, so ``python -m repro.obs.report`` reconstructs
the identical Table II numbers from the trace alone.
"""

from __future__ import annotations

import dataclasses
import math

import numpy as np

from ..config import SimulationConfig
from ..gravity.direct import direct_forces
from ..gravity.flops import InteractionCounts
from ..gravity.treewalk import KernelWorkspace
from ..integrator import EnergyDiagnostics, system_diagnostics
from ..obs.tracer import PhaseClock, Tracer
from ..particles import ParticleSet
from ..parallel import (DomainDecomposition, EmptyDomainError,
                        distributed_forces, domain_update, exchange_particles)
from ..parallel.feedback import CostModel, LB_MODES
from ..sfc import BoundingBox, SortCache
from ..simmpi import SimComm, spmd_run
from ..simmpi.transport import make_world, world_transport
from .step import StepBreakdown


@dataclasses.dataclass
class RankResult:
    """Picklable end-of-run snapshot of one rank's simulation.

    Process-transport (and mpi4py) runs return these instead of live
    :class:`ParallelSimulation` objects: the driver, with its
    communicator and caches, cannot cross a process boundary, but
    everything a caller inspects after the run can.  The attribute
    names mirror the driver's, so result-consuming code (e.g.
    :func:`gather_particles`) works on either.
    """

    rank: int
    particles: ParticleSet
    acc: np.ndarray | None
    phi: np.ndarray | None
    time: float
    step_count: int
    history: list[StepBreakdown]
    boundary_history: list[tuple[int, ...]]
    recv_wait_seconds: float


class ParallelSimulation:
    """Per-rank driver; instantiate inside an SPMD program.

    Parameters
    ----------
    comm:
        This rank's communicator.
    particles:
        This rank's initial local particles (any distribution; the first
        domain update moves everything where it belongs).
    config:
        Numerical parameters, identical on all ranks.
    decomposition_method:
        "hierarchical" (paper) or "serial" (ablation baseline).
    load_balance:
        What the domain cut balances: ``"measured"`` closes the paper's
        feedback loop (previous-step measured force cost via a
        :class:`~repro.parallel.feedback.CostModel`, EWMA-smoothed,
        re-cutting only when the imbalance trigger fires),
        ``"flops"`` (default) spreads the previous step's interaction
        flop estimate uniformly per rank and re-cuts every step, and
        ``"count"`` balances raw particle counts.
    lb_source, lb_alpha, lb_trigger_ratio:
        Measured-mode knobs, forwarded to
        :class:`~repro.parallel.feedback.CostModel` (cost source,
        EWMA weight, rebalance trigger).
    invariant_checks:
        When True (identical on all ranks -- the checks are collective),
        every redistribute asserts exchange conservation and ownership
        and every force evaluation asserts the local octree's structural
        invariants, via :mod:`repro.testing.invariants`.
    trace:
        Optional :class:`repro.obs.Tracer`; attached to the world (all
        ranks must pass the same tracer) so every phase, message and
        collective lands in one trace.  When omitted, a tracer already
        attached to the world is picked up automatically.
    health:
        Optional :class:`repro.obs.health.HeartbeatBoard`; attached to
        the world (idempotent, like ``trace``) so the SimMPI op sites
        beat through it, and the driver stamps step-level beats at the
        step boundaries.  When omitted, a board already attached to
        the world is picked up automatically.
    """

    def __init__(self, comm: SimComm, particles: ParticleSet,
                 config: SimulationConfig | None = None,
                 decomposition_method: str = "hierarchical",
                 sample_rate1: float = 0.01, sample_rate2: float = 0.05,
                 load_balance: str = "flops",
                 lb_source: str = "auto", lb_alpha: float = 0.5,
                 lb_trigger_ratio: float = 1.1,
                 invariant_checks: bool = False,
                 trace: Tracer | None = None,
                 health=None):
        self.comm = comm
        self.particles = particles
        self.config = config or SimulationConfig()
        if self.config.force_method == "direct" and comm.size > 1:
            raise ValueError(
                'force_method="direct" is the one-rank O(N^2) oracle; '
                f"it cannot run on {comm.size} ranks")
        if particles.n == 0:
            raise EmptyDomainError(comm.rank, 0, "init")
        self.method = decomposition_method
        self.rate1 = sample_rate1
        self.rate2 = sample_rate2
        if load_balance not in LB_MODES:
            raise ValueError(f"unknown load_balance {load_balance!r}; "
                             f"expected one of {LB_MODES}")
        self.load_balance = load_balance
        self.invariant_checks = invariant_checks
        if trace is not None:
            comm.world.attach_tracer(trace)
        if health is not None:
            comm.world.attach_health(health)
        # Read the board back off the world: the process transport
        # rebuilds a rank-local board from the fork-copied template.
        self._health = getattr(comm.world, "health", None)
        self._cost_model = CostModel(
            comm, source=lb_source, alpha=lb_alpha,
            trigger_ratio=lb_trigger_ratio) \
            if load_balance == "measured" else None
        self.time = 0.0
        self.step_count = 0
        self.history: list[StepBreakdown] = []
        self.decomposition: DomainDecomposition | None = None
        self._box: BoundingBox | None = None
        #: Boundary tuple after every redistribute (the sequence the
        #: determinism harness pins across runs).
        self.boundary_history: list[tuple[int, ...]] = []
        self.recv_wait_seconds = 0.0
        self._acc: np.ndarray | None = None
        self._phi: np.ndarray | None = None
        self._weights: np.ndarray | None = None
        # Fast-path state: one sort cache per sort site (pre-exchange
        # "Sorting SFC" and the in-force tree build), a persistent
        # kernel workspace, and the post-exchange keys carried from
        # redistribute to compute_forces (valid: same box).
        self._sort_cache = SortCache()
        self._tree_sort_cache = SortCache()
        self._workspace: KernelWorkspace | None = None
        self._keys: np.ndarray | None = None
        # Resolve the compute backend once per rank (fails fast when it
        # cannot run here) and build its kernels outside the timed steps.
        from ..gravity.backends import get_backend
        self._backend = get_backend(self.config.backend)
        self._backend.warmup(self.config.precision)
        # Layout epoch, bumped whenever the local particle set changes
        # (rebalance / exchange migration) so the sort caches'
        # tie-breaking never survives a relayout.
        self._layout_epoch = 0

    # -- observability ----------------------------------------------------

    @property
    def tracer(self) -> Tracer:
        """The world's tracer (:data:`repro.obs.NULL_TRACER` when off)."""
        return self.comm.tracer

    @property
    def acc(self) -> np.ndarray | None:
        """Accelerations of the local particles (post ``compute_forces``)."""
        return self._acc

    @property
    def phi(self) -> np.ndarray | None:
        """Potentials of the local particles (post ``compute_forces``)."""
        return self._phi

    def portable(self) -> RankResult:
        """Snapshot this rank's end state for cross-process return."""
        return RankResult(
            rank=self.comm.rank, particles=self.particles,
            acc=self._acc, phi=self._phi, time=self.time,
            step_count=self.step_count, history=list(self.history),
            boundary_history=list(self.boundary_history),
            recv_wait_seconds=self.recv_wait_seconds)

    def _beat(self, phase: str | None = None) -> None:
        """Driver-level heartbeat (step boundaries; no-op without a
        board).  The comm-level phase labels keep tracking the SimMPI
        phases; a driver beat only refreshes step and timestamp unless
        it names a phase itself."""
        hb = self._health
        if hb is not None:
            hb.beat(self.comm.rank, step=self.step_count, phase=phase)

    # -- load balancing ----------------------------------------------------

    def _lb_decision(self, keys: np.ndarray,
                     flop_weights: np.ndarray | None,
                     box_changed: bool
                     ) -> tuple[np.ndarray | None, bool, float]:
        """Pick cut weights and decide whether to re-cut this step.

        Returns ``(weights, rebalance, ratio)``.  The decision is
        collective but needs no agreement protocol: every rank computes
        it from identically allgathered data.

        - ``"count"``: no weights, re-cut every step (the baseline).
        - ``"flops"``: previous-step flop-estimate weights, re-cut
          every step (the pre-feedback behaviour).
        - ``"measured"``: smoothed measured-cost weights; re-cut only
          when the imbalance trigger fires (or on cold start, falling
          back to the flop-estimate weights), otherwise keep the
          previous boundaries -- unless the global box had to be
          regrown (old boundary keys are meaningless against a new
          box) or a domain would come up empty under them.
        """
        if self.load_balance == "count":
            return None, True, math.inf
        if self._cost_model is None:
            return flop_weights, True, math.inf
        ratio = self._cost_model.imbalance()
        rebalance = (self.decomposition is None or box_changed
                     or self._cost_model.should_rebalance(ratio))
        if not rebalance:
            counts = self.comm.allreduce(self.decomposition.counts(keys))
            rebalance = bool(np.any(counts == 0))
        weights = self._cost_model.weights(len(keys))
        if weights is None:
            weights = flop_weights    # cold start: flop-estimate fallback
        return weights, rebalance, ratio

    # -- pipeline pieces --------------------------------------------------

    def _global_box(self) -> BoundingBox:
        """Reduce local bounding boxes to the shared global cube."""
        local = BoundingBox.from_positions(self.particles.pos)
        boxes = self.comm.allgather((local.origin, local.size))
        return BoundingBox.merge([BoundingBox(origin=o, size=s)
                                  for o, s in boxes], pad=1e-3)

    def _update_box(self) -> tuple[BoundingBox, bool]:
        """Global box for this step's keys; returns ``(box, changed)``.

        In measured mode the previous box is reused while it still
        contains every particle: keeping old boundary *keys* across a
        skipped re-cut is only meaningful against the box that produced
        them.  A fresh min/max box jiggles with the outermost particles,
        and near octant planes even a tiny origin shift relabels whole
        Hilbert octants -- enough to wreck a balanced cut without any
        cost change.  When a particle escapes, the box is regrown and
        the caller must re-cut.
        """
        if self._cost_model is None or self._box is None:
            return self._global_box(), True
        b = self._box
        pos = self.particles.pos
        inside = bool(np.all(pos >= b.origin) and np.all(pos < b.origin + b.size))
        if bool(self.comm.allreduce(inside, op="min")):
            return b, False
        return self._global_box(), True

    def redistribute(self, bd: StepBreakdown | None = None) -> None:
        """Domain update + particle exchange (Table II "Domain Update")."""
        ck = PhaseClock(self.comm, self.step_count)
        t0 = ck.now()
        box, box_changed = self._update_box()
        keys = box.keys(self.particles.pos, self.config.curve)
        order = self._sort_cache.order_for(keys, epoch=self._layout_epoch)
        sort_mode = self._sort_cache.last_mode
        weights = self._weights if self._weights is not None and \
            len(self._weights) == len(order) else None
        if sort_mode != "identity":
            # identity == keys already non-decreasing: skip the reorder
            # copies entirely.
            self.particles.reorder(order)
            keys = keys[order]
            if weights is not None:
                weights = weights[order]
        t1 = ck.now()
        ck.rec("sorting", t0, t1, sort_mode=sort_mode)

        self.comm.set_phase("domain_update")
        weights, rebalance, ratio = self._lb_decision(keys, weights,
                                                      box_changed)
        if rebalance:
            t_rb = ck.now()
            self.decomposition = domain_update(self.comm, keys, weights,
                                               method=self.method,
                                               rate1=self.rate1,
                                               rate2=self.rate2)
            if self._cost_model is not None:
                self._cost_model.record_rebalance()
                attrs = {"mode": self.load_balance}
                if math.isfinite(ratio):
                    attrs["imbalance"] = ratio
                ck.rec("rebalance", t_rb, ck.now(), **attrs)
        self.boundary_history.append(
            tuple(int(b) for b in self.decomposition.boundaries))
        old_ids = self.particles.ids
        self.particles, self._keys = exchange_particles(
            self.comm, self.particles, keys, self.decomposition,
            check=self.invariant_checks, return_keys=True)
        if self.particles.n == 0:
            raise EmptyDomainError(self.comm.rank, self.step_count,
                                   "domain_update")
        # Layout generation: any change to the local particle sequence
        # (migration in/out, or a reorder the exchange introduced)
        # invalidates the sort caches' permutations.  The epoch tag
        # makes that explicit instead of relying on their structural
        # checks alone.
        if not np.array_equal(self.particles.ids, old_ids):
            self._layout_epoch += 1
        if self.invariant_checks:
            from ..testing.invariants import check_ownership
            keys_after = box.keys(self.particles.pos, self.config.curve)
            check_ownership(self.comm, self.decomposition, keys_after)
        t2 = ck.now()
        du_attrs = {}
        if self._cost_model is not None:
            du_attrs["rebalanced"] = rebalance
            if math.isfinite(ratio):
                du_attrs["lb_imbalance"] = ratio
        ck.rec("domain_update", t1, t2, **du_attrs)
        self._box = box
        if bd is not None:
            bd.sorting += t1 - t0
            bd.domain_update += t2 - t1

    def compute_forces(self, bd: StepBreakdown | None = None) -> None:
        """Distributed force computation on the current layout.

        The per-sub-phase times measured inside
        :func:`distributed_forces` are booked onto Table II rows here
        (:meth:`StepBreakdown.book`).  ``force_method="direct"`` (one
        rank only) replaces the whole phase by the O(N^2) oracle -- "if
        the opening angle is infinitesimal the tree-code reduces to a
        ... direct N-body code" -- booked as "Compute gravity Local-tree".
        """
        if self.config.force_method == "direct":
            ps = self.particles
            counts = InteractionCounts(quadrupole=False)
            ck = PhaseClock(self.comm, self.step_count)
            t0 = ck.now()
            self._acc, self._phi = direct_forces(
                ps.pos, ps.mass, eps=self.config.softening, counts=counts)
            phases = {"gravity_local": ck.rec(
                "gravity_local", t0, ck.now(), n_particles=ps.n,
                n_pp=counts.n_pp, n_pc=0, quadrupole=False)}
        else:
            counts, phases = self._tree_forces()
        if bd is not None:
            for span, seconds in phases.items():
                bd.book(span, seconds)
            bd.counts.add(counts)
            bd.counts.quadrupole = counts.quadrupole
            bd.n_particles = self.particles.n

    def _tree_forces(self) -> tuple[InteractionCounts, dict]:
        """One :func:`distributed_forces` pass; returns its interaction
        tally and seconds per sub-phase."""
        if self._workspace is None:
            self._workspace = self._backend.make_workspace(
                self.config.chunk, self.config.precision)
        keys, self._keys = self._keys, None
        result = distributed_forces(
            self.comm, self.particles, self.config, self._box,
            step=self.step_count, keys=keys,
            sort_cache=self._tree_sort_cache, workspace=self._workspace,
            sort_epoch=self._layout_epoch, backend=self._backend)
        self._acc, self._phi = result.acc, result.phi
        self._result = result
        self.recv_wait_seconds += result.recv_wait_seconds
        if self.invariant_checks:
            from ..testing.invariants import check_octree
            check_octree(result.tree, self.particles.pos, self.particles.mass)
        # Per-particle cost estimate for the next load balance: spread the
        # local walk cost uniformly over local particles (the GPU balance
        # quantity is flops per domain, which this reproduces in aggregate).
        self._weights = np.full(
            self.particles.n, result.counts_total.flops / self.particles.n)
        if self._cost_model is not None:
            # Fold the measurement distributed_forces just booked into
            # the metrics registry into the smoothed cost model.
            self._cost_model.observe(self.particles.n)
        return result.counts_total, result.phases

    def prime(self, bd: StepBreakdown | None = None) -> None:
        """Initial decomposition + forces (before the first step)."""
        self._beat("prime")
        self.redistribute(bd)
        self.compute_forces(bd)

    def step(self) -> StepBreakdown:
        """Advance one KDK step; returns this rank's timing breakdown."""
        self._beat()
        bd = StepBreakdown()
        if self._acc is None:
            self.prime(bd)
        dt = self.config.dt
        half = 0.5 * dt

        ck = PhaseClock(self.comm, self.step_count)
        t0 = ck.now()
        self.particles.vel += self._acc * half
        self.particles.pos += self.particles.vel * dt
        bd.other += ck.rec("other", t0, ck.now())

        self.redistribute(bd)
        self.compute_forces(bd)

        t0 = ck.now()
        self.particles.vel += self._acc * half
        bd.other += ck.rec("other", t0, ck.now())

        self.time += dt
        self.step_count += 1
        self.history.append(bd)
        self._beat()
        return bd

    def evolve(self, n_steps: int,
               callback=None) -> None:
        """Advance ``n_steps`` steps.

        ``callback(self)`` runs after every step on *every rank's*
        thread -- live consumers (e.g. the
        :mod:`repro.obs.dashboard`) filter on ``self.comm.rank``.
        """
        for _ in range(n_steps):
            self.step()
            if callback is not None:
                callback(self)

    def diagnostics(self) -> EnergyDiagnostics:
        """Globally reduced energy/momentum diagnostics."""
        if self._phi is None:
            self.prime()
        d = system_diagnostics(self.particles, self._phi)
        return EnergyDiagnostics(*map(self.comm.allreduce, (
            d.kinetic, d.potential, d.momentum, d.angular_momentum)))


def run_parallel_simulation(n_ranks: int, particles: ParticleSet,
                            config: SimulationConfig | None = None,
                            n_steps: int = 1,
                            decomposition_method: str = "hierarchical",
                            timeout: float = 600.0,
                            world=None,
                            load_balance: str = "flops",
                            lb_source: str = "auto",
                            lb_alpha: float = 0.5,
                            lb_trigger_ratio: float = 1.1,
                            invariant_checks: bool = False,
                            trace: Tracer | None = None,
                            trace_sink=None,
                            on_step=None,
                            transport: str | None = None,
                            health=None
                            ) -> list[ParallelSimulation]:
    """Convenience front-end: shard ``particles``, run ``n_steps`` on
    ``n_ranks`` SimMPI ranks, return the per-rank results.

    ``transport`` selects the execution substrate (default: the
    config's ``transport`` field, normally ``"threads"``).  On
    ``"threads"`` each element of the returned list is the rank's live
    :class:`ParallelSimulation`; on ``"process"`` (forked ranks,
    shared-memory messaging -- see docs/TRANSPORTS.md) it is the
    equivalent picklable :class:`RankResult` snapshot.  Metrics,
    traffic and traces are merged back onto the world either way, and
    ``on_step`` runs inside the workers (so a rank-0 progress printer
    works, but it cannot mutate parent state).

    ``world`` lets callers supply a prepared world object
    (e.g. a :class:`~repro.faults.FaultyWorld` or a
    :class:`~repro.simmpi.process.ProcessWorld`) to run the identical
    program over an instrumented or misbehaving transport; it implies
    its own transport.  ``trace`` attaches a :class:`repro.obs.Tracer`
    to that world so the whole run lands in one trace (export with
    :func:`repro.obs.write_chrome_trace`).

    ``trace_sink`` accepts anything
    :func:`repro.obs.sink.coerce_sink` does -- a path streams the run
    to JSONL incrementally, an int caps tracer memory with a ring, a
    :class:`~repro.obs.sink.Sink` is used as-is.  Without ``trace=``
    the front-end builds the tracer around that sink and *owns* it:
    the sink is flushed and closed (streaming files finalised) before
    this returns.  With an explicit ``trace=`` the sink is attached to
    it and merely flushed -- the caller closes its own tracer.

    ``on_step(sim)`` runs after every step on every rank's thread (the
    dashboard hook).  ``load_balance`` / ``lb_*`` select and tune the
    domain-cut weighting (see :class:`ParallelSimulation`).

    ``health`` turns on run-health telemetry (docs/OBSERVABILITY.md
    section 13): ``True`` builds a
    :class:`~repro.obs.health.HeartbeatBoard`, or pass a prepared board,
    or a :class:`~repro.obs.health.FlightRecorder` -- the recorder's
    ring is attached as a trace sink and a post-mortem bundle is dumped
    automatically when the run dies (typed rank failure, recv timeout,
    or any run-level error)."""
    from ..obs.health import FlightRecorder, HeartbeatBoard
    from ..simmpi.errors import RankFailedError, RecvTimeoutError

    n = particles.n
    owns_tracer = False
    recorder = None
    board = None
    if isinstance(health, FlightRecorder):
        recorder = health
        board = recorder.board or HeartbeatBoard(n_ranks)
    elif isinstance(health, HeartbeatBoard):
        board = health
    elif health:
        board = HeartbeatBoard(n_ranks)
    if recorder is not None:
        # The flight ring records the run: hang it off the caller's
        # tracer, or own a fresh one around it.
        if trace is None:
            trace = Tracer(sink=recorder.ring)
            owns_tracer = True
        elif recorder.ring not in trace.sinks:
            trace.add_sink(recorder.ring)
    if trace_sink is not None:
        if trace is None:
            trace = Tracer(sink=trace_sink)
            owns_tracer = True
        else:
            trace.add_sink(trace_sink)

    grace = config.watchdog_grace if config is not None else None
    if world is None:
        chosen = transport or (config.transport if config is not None
                               else None) or "threads"
        # Health telemetry needs the world object up front (to attach
        # the board and give the recorder something to dump), so build
        # it eagerly even on the threaded transport.
        if chosen != "threads" or board is not None:
            world = make_world(n_ranks, transport=chosen, timeout=timeout,
                               watchdog_grace=grace)
    elif transport is not None and world_transport(world) != transport:
        raise ValueError(
            f"world is a {world_transport(world)!r} transport but "
            f"transport={transport!r} was requested")
    if world is not None and trace is not None:
        # Parent-side attach: on the threaded world this is the same
        # (idempotent) attach the per-rank drivers perform; on a
        # process world it registers where the merged per-rank events
        # land after the run.
        world.attach_tracer(trace)
    if world is not None and board is not None:
        world.attach_health(board)
    if recorder is not None:
        recorder.bind(world=world, board=board, config=config)

    def prog(comm: SimComm) -> ParallelSimulation:
        lo = n * comm.rank // comm.size
        hi = n * (comm.rank + 1) // comm.size
        local = particles.select(np.arange(lo, hi))
        sim = ParallelSimulation(comm, local, config,
                                 decomposition_method=decomposition_method,
                                 load_balance=load_balance,
                                 lb_source=lb_source, lb_alpha=lb_alpha,
                                 lb_trigger_ratio=lb_trigger_ratio,
                                 invariant_checks=invariant_checks,
                                 trace=trace, health=board)
        sim.evolve(n_steps, callback=on_step)
        if getattr(comm.world, "portable_results", False):
            return sim.portable()
        return sim

    try:
        try:
            return spmd_run(n_ranks, prog, timeout=timeout, world=world)
        except (RankFailedError, RecvTimeoutError, TimeoutError,
                RuntimeError) as exc:
            # Run died: freeze the evidence before re-raising.  (Stall
            # verdicts surface as RankFailedError/RecvTimeoutError from
            # the recv path, or BrokenBarrierError -> RuntimeError from
            # collectives; either way the bundle captures the wait-for
            # state.)
            if recorder is not None:
                if isinstance(exc, RankFailedError):
                    reason = "rank-failed"
                elif isinstance(exc, TimeoutError):
                    reason = "timeout"
                else:
                    reason = "error"
                recorder.dump(reason, error=exc)
            if isinstance(exc.__cause__, ValueError):
                # A rank rejected its input (an option invalid at this
                # rank count, an empty domain): the caller's error,
                # surfaced typed instead of wrapped.
                raise exc.__cause__
            raise
    finally:
        if owns_tracer:
            trace.close()
        elif trace is not None and trace_sink is not None:
            trace.flush()


def gather_particles(sims: list[ParallelSimulation] | list[RankResult]
                     ) -> ParticleSet:
    """Reassemble the global particle set in id order from rank results."""
    full = ParticleSet.concatenate([s.particles for s in sims])
    full.reorder(np.argsort(full.ids, kind="stable"))
    return full
