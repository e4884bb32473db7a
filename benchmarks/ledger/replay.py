"""The ``--trace 1`` run: a layer replay driven from outside the program.

For a workload's inputs the replay calls each layer's public functions in
pipeline order, one harness span per call (:mod:`spans`), measures the
host's ceilings in the same process, and runs drivers for a few steps:
the workload's own, untraced and with the program's own ``trace=`` tracer
(what switching that on costs), and the two two-rank drivers -- process
and threads transport -- on the same particles.  Two saturated cores of
a shared two-core host do not repeat well enough to gate on (NOISE.md),
so the two-rank runs are shown here, with the phase attribution their
public ``history`` gives, instead of being workloads of their own.
Every per-layer metric is read off those spans and probes; a metric
whose section could not run is reported as skipped (NaN), never filled
in.

Which inputs feed which layers:

* front-end layers (sfc, octree, boundary/LET build, shm codec on the
  LET, snapshot I/O): the workload's own particle set, three passes with
  a drift between them;
* gravity layers and driver probes: the same set -- except
  ``treepipe_mw_250k``, where a force pass would take a minute, which
  uses an ``n_grav``-particle realisation of the same model and seed;
* parallel layers: a 2-rank threads world that runs only
  ``domain_update`` + ``exchange_particles``, then, in this process,
  domain A's tree, boundary and LET for domain B's box, evaluated on B.
"""

from __future__ import annotations

import contextlib
import dataclasses
import os
import shutil
import statistics
import sys
import tempfile
import time
import traceback
from pathlib import Path

import numpy as np

from repro.sfc import SortCache

from estimators import cheapest_window, fastest
from spans import NULL, SpanRecorder
from workloads import (CPU_WINDOW, REF_SECONDS, RUNNERS, WORKLOADS, Checks, Workload,
                       check_dynamics, front_end_pass, run_parallel)

#: Driver steps per probe (after the warm-up) at REF_SECONDS; the median
#: over them is reported.
PROBE_STEPS = 3
#: Front-end passes per replay: the first sort is cold by construction,
#: the rest show whether the sort cache answers.
FRONT_PASSES = 3
#: Bandwidth arrays are at least 4 x LLC, capped here.
BANDWIDTH_CAP = 1 << 30
LLC_FALLBACK = 32 << 20
#: Gathered elements of the random-take ceiling.
TAKE_ELEMENTS = 1 << 24
PINGPONGS = 200
IO_PARTICLES = 100_000


class Unavailable(RuntimeError):
    """A layer call the replay needs cannot be made on this host/commit."""


def _median(xs) -> float:
    return float(statistics.median(xs))


def llc_bytes() -> int:
    best = 0
    for idx in Path("/sys/devices/system/cpu/cpu0/cache").glob("index*"):
        try:
            text = (idx / "size").read_text().strip()
        except OSError:
            continue
        mult = {"K": 1 << 10, "M": 1 << 20, "G": 1 << 30}.get(text[-1], 1)
        digits = text[:-1] if text[-1] in "KMG" else text
        best = max(best, int(digits) * mult)
    return best or LLC_FALLBACK


class Replay:
    def __init__(self, w: Workload, seed: int, smoke: bool, scratch: Path):
        self.w, self.seed, self.smoke, self.scratch = w, seed, smoke, scratch
        self.cfg = w.config()
        self.rec = SpanRecorder()
        self.rec.workload = w.name
        self.metrics: dict[str, float] = {}
        self.table: list[str] = []
        self.checks = Checks()
        self.steps_run = 0

    # -- plumbing -----------------------------------------------------------

    @contextlib.contextmanager
    def section(self, name: str):
        """A group of layer calls; if the layer is not there any more its
        metrics stay unset and are reported as skipped."""
        try:
            yield
        except (ImportError, AttributeError, TypeError, Unavailable):
            print(f"ledger: section {name} skipped:", file=sys.stderr)
            traceback.print_exc()

    @contextlib.contextmanager
    def tagged(self, suffix: str):
        """Spans opened inside belong to a sub-input of the workload."""
        old = self.rec.workload
        self.rec.workload = f"{self.w.name}/{suffix}"
        try:
            yield self.rec.workload
        finally:
            self.rec.workload = old

    def dur(self, name: str, tag: str | None = None) -> list[float]:
        return self.rec.durations(name, self.w.name if tag is None else tag)

    def put(self, name: str, value) -> None:
        self.metrics[name] = float(value)

    # -- host ceilings --------------------------------------------------------

    def host(self) -> None:
        llc = llc_bytes()
        size = min(4 * llc, BANDWIDTH_CAP)
        if self.smoke:
            size = min(size, 64 << 20)
        n = size // 8
        src = np.ones(n)
        dst = np.empty(n)
        with self.rec.span("host.copy", bytes=size):
            best = min(self._timed(np.copyto, dst, src) for _ in range(3))
        self.put("host.copy_gb_s", size / best / 1e9)
        del dst
        k = min(TAKE_ELEMENTS, n)
        idx = np.random.default_rng(self.seed).integers(0, n, size=k)
        out = np.empty(k)
        with self.rec.span("host.take", bytes=8 * k):
            best = min(self._timed(src.take, idx, out=out) for _ in range(3))
        self.put("host.take_gb_s", 8 * k / best / 1e9)
        del src, idx, out

        from repro.gravity import DEFAULT_CHUNK
        x = np.full(DEFAULT_CHUNK, 1.000001)
        y = np.full(DEFAULT_CHUNK, 0.999999)
        z = np.empty(DEFAULT_CHUNK)
        reps = 200

        def fused() -> None:
            for _ in range(reps):
                np.multiply(x, y, out=z)
                np.add(z, y, out=z)

        with self.rec.span("host.ufunc", flops=2 * DEFAULT_CHUNK * reps):
            best = min(self._timed(fused) for _ in range(5))
        self.put("host.ufunc_gflops", 2 * DEFAULT_CHUNK * reps / best / 1e9)
        self.table.append(
            f"host: LLC {llc >> 20} MiB, bandwidth arrays {size >> 20} MiB "
            f"(payload bytes/s), take gathers {k} of {n} float64, "
            f"ufunc operands {DEFAULT_CHUNK} float64 (L2-resident)")

    @staticmethod
    def _timed(fn, *args, **kwargs) -> float:
        t0 = time.perf_counter()
        fn(*args, **kwargs)
        return time.perf_counter() - t0

    # -- front-end layers -------------------------------------------------------

    def front_end(self):
        w = self.w
        with self.rec.span("ics.generate", n=w.n):
            ps = w.particles(self.seed)
        self.put("ics.generate_s", self.dur("ics.generate")[-1])
        cache = SortCache()
        for k in range(FRONT_PASSES):
            self.rec.step = k
            with self.rec.span("front_end.pass"):
                fe = front_end_pass(ps, self.cfg, cache, self.rec)
        self.rec.step = 0
        n = ps.n
        self.put("sfc.keys_s", _median(self.dur("sfc.keys")))
        self.put("sfc.keys_mpart_s", n / self.metrics["sfc.keys_s"] / 1e6)
        self.put("sfc.sort_s", _median(self.dur("sfc.sort")))
        modes = self.rec.counts("sfc.sort", "mode")
        self.put("sfc.sort_reuse_ratio",
                 sum(m != "cold" for m in modes) / len(modes))
        self.put("octree.build_s", _median(self.dur("octree.build")))
        self.put("octree.build_mpart_s",
                 n / self.metrics["octree.build_s"] / 1e6)
        self.put("octree.moments_s", _median(self.dur("octree.moments")))
        self.put("octree.groups_s", _median(self.dur("octree.groups")))
        self.put("octree.cells_per_particle", fe.tree.n_cells / n)
        self.put("octree.group_mean_size", n / len(fe.tree.group_first))
        self.put("parallel.boundary_build_s",
                 _median(self.dur("parallel.boundary_build")))
        self.put("parallel.boundary_cells", fe.boundary.n_cells)
        self.put("parallel.let_build_s",
                 _median(self.dur("parallel.let_build")))
        self.put("parallel.let_cells", fe.let.n_cells)
        self.put("parallel.let_bytes", fe.let.nbytes)
        return ps, fe

    def span_overhead(self, ps) -> None:
        """The same front-end pass with the recorder switched off: the
        difference is what the replay's own spans cost."""
        cache = SortCache()
        plain = []
        for _ in range(FRONT_PASSES):
            t0 = time.perf_counter()
            front_end_pass(ps, self.cfg, cache)
            plain.append(time.perf_counter() - t0)
        self.put("obs.replay_over_step",
                 _median(self.dur("front_end.pass")) / _median(plain))

    # -- gravity layers -----------------------------------------------------------

    def gravity(self, ps, tree, tag: str) -> None:
        """Self-gravity of ``ps`` over its own tree: walk, p-c, p-p."""
        from repro.gravity import InteractionCounts, walk_interaction_lists
        from repro.gravity.treewalk import (evaluate_pc_pairs,
                                            evaluate_pp_pairs, group_aabbs)
        cfg, rec = self.cfg, self.rec
        n = ps.n
        spos, smass = ps.pos[tree.order], ps.mass[tree.order]
        with rec.span("gravity.walk", groups=len(tree.group_first)) as sp:
            gmin, gmax = group_aabbs(tree, spos)
            pc_g, pc_c, pp_g, pp_c, _ = walk_interaction_lists(tree, gmin, gmax)
            sp.add(list_entries=len(pc_g) + len(pp_g))
        acc, phi = np.zeros((n, 3)), np.zeros(n)
        counts = InteractionCounts(quadrupole=cfg.quadrupole)
        eps2 = cfg.softening ** 2
        with rec.span("gravity.pc_eval") as sp:
            evaluate_pc_pairs(acc, phi, spos, tree, pc_g, pc_c,
                              tree.group_first, tree.group_count, eps2,
                              cfg.quadrupole, counts)
            sp.add(n_pc=counts.n_pc)
        with rec.span("gravity.pp_eval") as sp:
            evaluate_pp_pairs(acc, phi, spos, spos, smass, pp_g, pp_c,
                              tree.group_first, tree.group_count,
                              tree.body_first, tree.body_count, eps2,
                              counts, exclude_self=True)
            sp.add(n_pp=counts.n_pp)
        with rec.span("integrator.update", n=n):
            from repro.integrator import drift, kick
            out = np.empty_like(acc)
            out[tree.order] = acc
            kick(ps, out, 0.5 * cfg.dt)
            drift(ps, cfg.dt)
            kick(ps, out, 0.5 * cfg.dt)

        walk_s = self.dur("gravity.walk", tag)[-1]
        pc_s = self.dur("gravity.pc_eval", tag)[-1]
        pp_s = self.dur("gravity.pp_eval", tag)[-1]
        self.put("gravity.walk_s", walk_s)
        self.put("gravity.walk_mpairs_s",
                 (len(pc_g) + len(pp_g)) / walk_s / 1e6)
        self.put("gravity.pc_eval_s", pc_s)
        self.put("gravity.pp_eval_s", pp_s)
        self.put("gravity.pp_per_particle", counts.n_pp / n)
        self.put("gravity.pc_per_particle", counts.n_pc / n)
        self.put("gravity.eval_gflops", counts.flops / (pc_s + pp_s) / 1e9)
        self.put("integrator.update_s", self.dur("integrator.update", tag)[-1])
        self._counts = counts

    def kernels(self) -> None:
        """Bare arithmetic on contiguous chunk-sized operands: no gather,
        no reduction.  The kernels consume their operands, so each call
        gets fresh copies, made outside the clock."""
        from repro.gravity import DEFAULT_CHUNK, FLOPS_PER_PC, FLOPS_PER_PP
        from repro.gravity.kernels import (pc_interactions_ws,
                                           pp_interactions_ws)
        rng = np.random.default_rng(self.seed)
        c = DEFAULT_CHUNK
        pristine = rng.uniform(0.5, 1.5, size=(10, c))
        bufs = np.empty((16, c))
        reps = 5 if self.smoke else 30
        t_pp = t_pc = 0.0
        eps2 = self.cfg.softening ** 2
        for _ in range(reps):
            bufs[:10] = pristine
            t0 = time.perf_counter()
            pp_interactions_ws(bufs[0], bufs[1], bufs[2], bufs[3], eps2,
                               bufs[10], bufs[11])
            t_pp += time.perf_counter() - t0
            bufs[:10] = pristine
            t0 = time.perf_counter()
            pc_interactions_ws(bufs[0], bufs[1], bufs[2], bufs[3],
                               tuple(bufs[4:10]), eps2, *bufs[10:16])
            t_pc += time.perf_counter() - t0
        pp_rate = FLOPS_PER_PP * c * reps / t_pp / 1e9
        pc_rate = FLOPS_PER_PC * c * reps / t_pc / 1e9
        self.put("gravity.kernel_pp_gflops", pp_rate)
        self.put("gravity.kernel_pc_gflops", pc_rate)
        cn = self._counts
        arithmetic_s = (FLOPS_PER_PP * cn.n_pp / pp_rate
                        + (cn.flops - FLOPS_PER_PP * cn.n_pp) / pc_rate) / 1e9
        eval_s = self.metrics["gravity.pc_eval_s"] \
            + self.metrics["gravity.pp_eval_s"]
        self.put("gravity.eval_over_kernel", arithmetic_s / eval_s)
        self.put("gravity.kernel_over_ceiling",
                 cn.flops / arithmetic_s / 1e9
                 / self.metrics["host.ufunc_gflops"])

    # -- parallel layers -------------------------------------------------------------

    def decompose(self, ps):
        """``domain_update`` + ``exchange_particles`` alone, in a 2-rank
        threads world; returns the two domains.  Rank 0 records the
        spans: both calls end in collectives."""
        from repro.parallel import domain_update, exchange_particles
        from repro.sfc import BoundingBox
        from repro.simmpi import spmd_run
        if (os.cpu_count() or 1) < 2:
            raise Unavailable("the 2-rank replay needs two cores")
        cfg, rec = self.cfg, self.rec
        box = BoundingBox.from_positions(ps.pos)
        migrants = []

        def prog(comm):
            lo = ps.n * comm.rank // comm.size
            hi = ps.n * (comm.rank + 1) // comm.size
            local = ps.select(np.arange(lo, hi))
            for it in range(FRONT_PASSES):
                keys = box.keys(local.pos, cfg.curve)
                order = np.argsort(keys, kind="stable")
                local.reorder(order)
                keys = keys[order]
                span = rec.span if comm.rank == 0 else NULL.span
                with span("parallel.domain_update"):
                    decomp = domain_update(comm, keys)
                moved = comm.allreduce(
                    int(np.sum(decomp.rank_of_keys(keys) != comm.rank)))
                with span("parallel.exchange", migrants=moved):
                    local = exchange_particles(comm, local, keys, decomp)
                if comm.rank == 0 and it > 0:
                    migrants.append(moved)
                # Stay inside the fixed box: a fraction of a real drift.
                local.pos += local.vel * (0.1 * cfg.dt)
                np.clip(local.pos, box.origin, box.origin + 0.999 * box.size,
                        out=local.pos)
            return local

        a, b = spmd_run(2, prog, timeout=120.0)
        self.put("parallel.domain_update_s",
                 _median(self.dur("parallel.domain_update")))
        self.put("parallel.exchange_s", _median(self.dur("parallel.exchange")))
        self.put("parallel.migrants_per_step", _median(migrants))
        return a, b

    def remote_gravity(self, a, b) -> None:
        """Domain A's structures as a remote source for domain B."""
        from repro.gravity import (SourceForest, tree_forces,
                                   walk_forest_interaction_lists)
        from repro.gravity.treewalk import group_aabbs
        from repro.parallel import boundary_sufficient_for, build_let_for_box
        cfg, rec = self.cfg, self.rec
        with self.tagged("rankA"):
            fa = front_end_pass(a, cfg, SortCache(), rec)
        with self.tagged("rankB"):
            fb = front_end_pass(b, cfg, SortCache(), rec)
        ta, tb = fa.tree, fb.tree
        needed = [not boundary_sufficient_for(fa.boundary, tb.bmin[0], tb.bmax[0]),
                  not boundary_sufficient_for(fb.boundary, ta.bmin[0], ta.bmax[0])]
        self.put("parallel.let_needed_ratio", sum(needed) / 2)
        if needed[0]:
            src = build_let_for_box(ta, a.pos[ta.order], a.mass[ta.order],
                                    tb.bmin[0], tb.bmax[0])
        else:
            src = fa.boundary
        forest = SourceForest.concatenate([src], [0])
        gmin, gmax = group_aabbs(tb, b.pos[tb.order])
        with rec.span("gravity.forest_walk", cells=forest.n_cells):
            walk_forest_interaction_lists(forest, gmin, gmax)
        with rec.span("gravity.let_eval", cells=src.n_cells) as sp:
            res = tree_forces(tb, b.pos, b.mass, theta=cfg.theta,
                              eps=cfg.softening, mac=cfg.mac,
                              quadrupole=cfg.quadrupole, source=src,
                              source_pos=src.part_pos,
                              source_mass=src.part_mass)
            sp.add(n_pp=res.counts.n_pp, n_pc=res.counts.n_pc)
        self.put("gravity.forest_walk_s", self.dur("gravity.forest_walk")[-1])
        self.put("gravity.let_eval_s", self.dur("gravity.let_eval")[-1])

    # -- simmpi ------------------------------------------------------------------------

    def simmpi(self, ps) -> None:
        from repro.simmpi import spmd_run
        from repro.simmpi.shm import decode_payload, encode_payload
        if (os.cpu_count() or 1) < 2:
            raise Unavailable("two ranks need two cores")

        def noop(comm):
            return comm.rank

        with self.rec.span("simmpi.spawn"):
            spmd_run(2, noop, transport="process", timeout=60.0)
        self.put("simmpi.spawn_s", self.dur("simmpi.spawn")[-1])

        rounds = 20 if self.smoke else PINGPONGS

        def pingpong(comm):
            token = np.zeros(8)
            comm.barrier()
            t0 = time.perf_counter()
            for _ in range(rounds):
                if comm.rank == 0:
                    comm.send(token, 1)
                    comm.recv(1)
                else:
                    comm.recv(0)
                    comm.send(token, 0)
            return (time.perf_counter() - t0) / rounds

        for transport in ("process", "threads"):
            with self.rec.span(f"simmpi.pingpong.{transport}", rounds=rounds):
                rtt = spmd_run(2, pingpong, transport=transport, timeout=60.0)
            self.put(f"simmpi.pingpong_us.{transport}", rtt[0] * 1e6)

        # The columns exchange_particles ships, for the whole front set.
        payload = (ps.pos, ps.vel, ps.mass, ps.ids, ps.component)
        nbytes = sum(a.nbytes for a in payload)
        enc, dec = [], []
        for _ in range(3):
            with self.rec.span("simmpi.codec_encode", bytes=nbytes):
                env = encode_payload(payload)
            with self.rec.span("simmpi.codec_decode", bytes=nbytes):
                decode_payload(env)
            enc.append(nbytes / self.dur("simmpi.codec_encode")[-1])
            dec.append(nbytes / self.dur("simmpi.codec_decode")[-1])
        self.put("simmpi.shm_encode_gb_s", max(enc) / 1e9)
        self.put("simmpi.shm_decode_gb_s", max(dec) / 1e9)

    # -- io ------------------------------------------------------------------------------

    def io(self, ps) -> None:
        from repro.io import load_snapshot, save_snapshot
        sub = ps if ps.n <= IO_PARTICLES else ps.select(np.arange(IO_PARTICLES))
        path = self.scratch / "snapshot.npz"
        with self.rec.span("io.snapshot_write", n=sub.n):
            save_snapshot(path, sub)
        size = path.stat().st_size
        with self.rec.span("io.snapshot_read", bytes=size):
            load_snapshot(path)
        self.put("io.snapshot_write_mb_s",
                 size / self.dur("io.snapshot_write")[-1] / 1e6)
        self.put("io.snapshot_read_mb_s",
                 size / self.dur("io.snapshot_read")[-1] / 1e6)

    # -- driver probes -----------------------------------------------------------------------

    def probe_workload(self) -> Workload:
        """What the driver probes run: the workload itself, or, where
        it has no driver or a force pass is unaffordable, the serial
        driver on the gravity replay's set."""
        w = self.w
        if w.kind != "treepipe":
            return w
        return dataclasses.replace(WORKLOADS[w.stand_in], n=w.n_grav)

    def probes(self, n_probe: int) -> float:
        """The workload's own driver, ``n_probe`` steps, untraced then
        traced; returns the untraced step time."""
        from repro.obs import Tracer
        probe = self.probe_workload()
        cfg = probe.config()
        drive = RUNNERS[probe.kind]
        with self.rec.span("probe.untraced", steps=n_probe):
            run = drive(probe, self.seed, cfg, n_probe)
        tracer = Tracer()
        with self.rec.span("probe.traced", steps=n_probe):
            traced = drive(probe, self.seed, cfg, n_probe, trace=tracer)
        self.steps_run += 2 * n_probe

        checks, values = check_dynamics(probe, self.seed, cfg, run, self.smoke)
        self.checks.rows += checks.rows
        self.put("gravity.force_err_median", values["force_err_median"])
        self.put("gravity.force_err_p99", values["force_err_p99"])
        self.put("integrator.energy_drift", values["energy_drift"])
        self.put("integrator.momentum_drift", values["momentum_drift"])

        untraced_step = fastest(run.step_s)
        self.put("obs.trace_overhead_ratio",
                 fastest(traced.step_s) / untraced_step)
        self.put("obs.events_per_step", len(tracer.events()) / (1 + n_probe))
        self.table.append(
            f"probe: {probe.kind} driver, N={probe.n}, {n_probe} steps "
            f"after warm-up; untraced step {untraced_step:.4f} s, traced "
            f"{fastest(traced.step_s):.4f} s")
        return untraced_step

    def two_rank(self, transport: str, n_probe: int):
        """The two-rank driver on the probe's particles: the run the gate
        cannot hold (NOISE.md), shown instead of gated."""
        from repro.simmpi import make_world
        if (os.cpu_count() or 1) < 2:
            raise Unavailable("two ranks need two cores")
        probe = dataclasses.replace(self.probe_workload(), kind="parallel",
                                    ranks=2, transport=transport)
        world = make_world(2, transport=transport, timeout=600.0)
        with self.rec.span(f"probe.two_rank.{transport}", steps=n_probe):
            run = run_parallel(probe, self.seed, probe.config(), n_probe,
                               world=world)
        self.steps_run += n_probe
        f = run.final
        self.checks.add(f"two_rank_{transport}_finite_state", all(
            np.all(np.isfinite(x)) for x in
            (f["particles"].pos, f["particles"].vel, f["acc"], f["phi"])))
        self.checks.add(f"two_rank_{transport}_ids_exactly_once",
                        np.array_equal(np.sort(f["ids"]), np.arange(probe.n)))
        self.put(f"core.step_s.{transport}", fastest(run.step_s))
        self.put(f"core.cpu_step_s.{transport}",
                 cheapest_window(run.cpu_s, CPU_WINDOW))
        return run, world

    def table2(self, run, world, n_probe: int) -> None:
        """Table II of the two-rank process run: slowest rank per phase,
        median over the probe's steps."""
        from repro.core.step import TABLE2_PHASES
        steps = range(n_probe)
        hist = run.histories
        for phase in TABLE2_PHASES:
            self.put(f"core.{phase}_s", _median(
                max(getattr(h[k], phase) for h in hist) for k in steps))
        self.put("core.driver_overhead_s", _median(
            max(run.rank_wall[r][k] - hist[r][k].total
                for r in range(len(hist))) for k in steps))
        grav = [[h[k].gravity_local + h[k].gravity_let for h in hist]
                for k in steps]
        self.put("core.rank_imbalance",
                 _median(max(g) / (sum(g) / len(g)) for g in grav))
        flops = [sum(h[k].counts.flops for h in hist) for k in steps]
        self.put("core.app_gflops",
                 _median(flops[k] / run.step_s[k] / 1e9 for k in steps))
        self.put("gravity.gflops_achieved",
                 _median(flops[k] / sum(grav[k]) / 1e9 for k in steps))
        n_steps = 1 + n_probe
        traffic = world.traffic.summary()
        self.put("simmpi.recv_wait_s", max(world.recv_waits) / n_steps)
        self.put("simmpi.bytes_per_step",
                 sum(p["bytes"] for p in traffic.values()) / n_steps)
        self.put("simmpi.messages_per_step",
                 sum(p["messages"] + p["collectives"]
                     for p in traffic.values()) / n_steps)

    def replay_step_s(self, tag: str) -> float:
        """What one driver step costs according to the replay's spans."""
        names = ["sfc.keys", "sfc.sort", "octree.build", "octree.moments",
                 "octree.groups", "gravity.walk", "gravity.pc_eval",
                 "gravity.pp_eval", "integrator.update"]
        return sum(self.dur(n, tag)[-1] for n in names)


def run_traced(w: Workload, seed: int, seconds: float, smoke: bool,
               per_layer: list[dict], scratch_root: Path,
               trace_out: str | None) -> dict:
    """The per-layer run of one workload; returns the result document.

    ``seconds`` scales the driver probes' step count; the layer replay
    itself is a fixed number of passes.
    """
    n_probe = max(2, round(PROBE_STEPS * seconds / REF_SECONDS))
    if smoke:
        w = w.smoke()
    scratch = Path(tempfile.mkdtemp(dir=scratch_root, prefix=".scratch-"))
    try:
        rp = Replay(w, seed, smoke, scratch)
        with rp.section("host"):
            rp.host()
        with rp.section("front_end"):
            ps, fe = rp.front_end()
        # Gravity replays on the workload's own set where a force pass is
        # affordable.
        grav_ps = ps if w.n_grav is None else w.particles(seed, w.n_grav)
        with rp.section("gravity"), rp.tagged("grav") as grav_tag:
            gfe = front_end_pass(grav_ps, rp.cfg, SortCache(), rp.rec)
            rp.gravity(grav_ps, gfe.tree, grav_tag)
        with rp.section("parallel"):
            rp.remote_gravity(*rp.decompose(grav_ps))
        with rp.section("kernels"):
            rp.kernels()
        with rp.section("simmpi"):
            rp.simmpi(ps)
        with rp.section("io"):
            rp.io(ps)
        with rp.section("probes"):
            untraced_step = rp.probes(n_probe)
            if w.kind == "treepipe":
                rp.span_overhead(ps)
            else:
                rp.put("obs.replay_over_step",
                       rp.replay_step_s(grav_tag) / untraced_step)
        with rp.section("two_rank.process"):
            rp.table2(*rp.two_rank("process", n_probe), n_probe)
        with rp.section("two_rank.threads"):
            rp.two_rank("threads", n_probe)
        if trace_out:
            rp.rec.write_jsonl(trace_out)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    nan = float("nan")
    skipped = [m["name"] for m in per_layer if m["name"] not in rp.metrics]
    metrics = {m["name"]: {"value": rp.metrics.get(m["name"], nan),
                           "unit": m["unit"]} for m in per_layer}
    table = list(rp.table)
    if skipped:
        table.append("skipped: " + " ".join(skipped))
    selfs = rp.rec.self_times()
    table.append(f"spans: {len(rp.rec.spans)} recorded, "
                 f"{sum(selfs.values()):.3f} s of self time")
    return {
        "workload": w.name, "seed": seed, "smoke": smoke, "trace": 1,
        "n": w.n, "steps": rp.steps_run, "metrics": metrics,
        "attempted": rp.steps_run + len(rp.checks.rows),
        "failed": rp.checks.failed,
        "correct": rp.checks.failed == 0,
        "checks": rp.checks.rows, "skipped": skipped, "table": table,
        "values": {},
    }
