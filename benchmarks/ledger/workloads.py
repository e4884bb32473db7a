"""The workloads, the outside-in end-to-end runner and its checks.

Everything here times the program from outside: ``time.perf_counter()``
and ``time.process_time()`` around public calls, and for the parallel
driver through the public ``on_step=`` hook writing into a
``multiprocessing.RawArray`` created before the fork (``CLOCK_MONOTONIC``
is system-wide, so stamps taken in forked ranks are comparable).
"""

from __future__ import annotations

import dataclasses
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from multiprocessing import RawArray
from pathlib import Path

import numpy as np

from repro import Simulation, SimulationConfig
from repro.core import run_parallel_simulation, validate_forces
from repro.core.parallel_simulation import gather_particles
from repro.ics import milky_way_model, plummer_model
from repro.octree import (build_octree, compute_moments,
                          compute_opening_radii, make_groups)
from repro.parallel import boundary_structure, build_let_for_box
from repro.particles import ParticleSet
from repro.sfc import BoundingBox, SortCache
from repro.simmpi.shm import decode_payload, encode_payload
from repro.testing.invariants import (InvariantViolation, check_let,
                                      check_octree)

from estimators import cheapest_window, fastest
from spans import NULL

#: ``--seconds`` at which a workload runs its nominal ``steps``; other
#: values scale the step count, never the problem size.
REF_SECONDS = 22.0
#: Cold set-ups per run, each in a process of its own (this one and
#: ``SETUP_REPS - 1`` children); the median is reported.
SETUP_REPS = 5
#: Steps in the window ``cpu_step_s`` averages over.
CPU_WINDOW = 4


@dataclasses.dataclass(frozen=True)
class Workload:
    name: str
    kind: str               # "serial" | "parallel" | "treepipe"
    ics: str                # "mw" | "plummer"
    n: int
    steps: int              # timed steps K at REF_SECONDS
    why: str
    ranks: int = 1
    transport: str | None = None
    dt: float | None = None  # None: SimulationConfig's default
    #: ``--trace 1`` only: the workload whose driver and model stand in
    #: where this one has no driver, and at how many particles.
    stand_in: str | None = None
    n_grav: int | None = None

    def config(self, **overrides) -> SimulationConfig:
        """``SimulationConfig()`` defaults; only the transport (and, for
        the Plummer sphere, its time unit) is set by the workload."""
        kw = {}
        if self.transport is not None:
            kw["transport"] = self.transport
        if self.dt is not None:
            kw["dt"] = self.dt
        kw.update(overrides)
        return SimulationConfig(**kw)

    def particles(self, seed: int, n: int | None = None) -> ParticleSet:
        n = self.n if n is None else n
        if self.ics == "mw":
            return milky_way_model(n, seed=seed)
        return plummer_model(n, seed=seed)

    def smoke(self) -> "Workload":
        """N and K cut ~20x (test mode; results are stamped and refused
        by compare.py)."""
        return dataclasses.replace(
            self, n=max(self.n // 20, 256), steps=max(self.steps // 20, 2),
            n_grav=None if self.n_grav is None else max(self.n_grav // 20, 256))


WORKLOADS = {w.name: w for w in (
    Workload(
        "serial_mw_4k", "serial", "mw", 4000, 56,
        "serial Simulation on Milky-Way ICs: 98 % of the step is "
        "gravity_local (pair evaluation 91 %, walk 6 %), so gravity "
        "gather/kernel/walk work shows; sfc/octree are 2 %, "
        "parallel/simmpi do nothing"),
    Workload(
        "threads1_plummer_2k", "parallel", "plummer", 2048, 160,
        "the parallel driver, one thread rank, small domain (1222 p-p, "
        "154 p-c per particle): short lists, so per-call overhead, sort "
        "repair, re-cuts, boundary build and in-process collectives weigh "
        "most here",
        ranks=1, transport="threads", dt=0.01),
    Workload(
        "treepipe_mw_250k", "treepipe", "mw", 250_000, 52,
        "no force kernels: Hilbert keys 63 %, moments 18 %, octree build "
        "14 %, boundary 3 %, then sort, groups, LET build and shm codec: "
        "the layers that are 2 % of a step everywhere else",
        stand_in="serial_mw_4k", n_grav=4000),
)}


# -- pinned correctness ceilings ------------------------------------------
#
# SEEN is the largest value any of seeds 1..20 produced at the commit
# that added the ledger (NOISE.md, "Check values"), at the nominal step
# counts.  The gate runs seeds nobody has tried, and a check that fails
# on a correct run refuses the whole benchmark, so each ceiling leaves
# room for how the statistic scatters across seeds:
#
# * median force error: max/median over the seeds is 1.2-1.4; 1.25 x max
#   is ~4 sigma out.  theta = 0.5 instead of 0.4 raises it 2.4x.
# * p99 force error (the ~3rd worst of 256 targets): max/median 1.3,
#   up to 1.8 at other sizes, hence 1.5 x max.
# * energy drift: close encounters make it heavy-tailed (max/median
#   1.8-2.8), hence 4 x max; a wrong kick or a lost force term drifts
#   by far more.  The 4000-particle Milky Way is collisional at the
#   default dt (7-41 % over the 56 steps), so its ceiling only catches a
#   run that comes apart.  The Plummer run conserves energy to
#   3e-6..7e-5 and every run momentum to ~1e-6, so those ceilings sit on
#   a floor.
MARGIN = {"force_err_median": 1.25, "force_err_p99": 1.5,
          "energy_drift": 4.0, "momentum_drift": 4.0}
FLOOR = {"force_err_median": 0.0, "force_err_p99": 0.0,
         "energy_drift": 1e-3, "momentum_drift": 1e-4}

SEEN = {
    "serial_mw_4k": {"force_err_median": 5.28e-05, "force_err_p99": 3.35e-04,
                     "energy_drift": 4.14e-01, "momentum_drift": 3.24e-06},
    "threads1_plummer_2k": {"force_err_median": 5.02e-05, "force_err_p99": 3.17e-04,
                            "energy_drift": 6.96e-05, "momentum_drift": 3.55e-06},
}


def ceiling(workload: str, key: str, smoke: bool = False) -> float:
    """The value above which check ``key`` fails on ``workload``."""
    limit = max(MARGIN[key] * SEEN[workload][key], FLOOR[key])
    # A 20x smaller system is a different (noisier) problem; smoke runs
    # only prove the checks execute, so their ceilings are slack.
    return 20.0 * limit if smoke else limit


#: Interactions per particle: the paper reports 1715-1745 p-p at every
#: scale and 4529 p-c at 13 M particles (p-c grows with log N, so small
#: runs sit far below it).  Outside this band the walk is not the
#: paper's walk any more (theta, NCRIT, NLEAF or the MAC changed).
PP_BAND = (870.0, 2620.0)
PC_BAND = (50.0, 4529.0)

VALIDATION_TARGETS = 256


# -- the timed region ------------------------------------------------------

@dataclasses.dataclass
class DriverRun:
    """What one driver invocation yields, all measured from outside."""

    setup_s: float                   # call start -> start of first timed step
    step_s: list[float]              # wall per timed step (rank 0)
    cpu_s: list[float]               # CPU per timed step, all processes
    peak_rss_mb: float
    histories: list[list]            # per rank: StepBreakdown per timed step
    final: dict                      # state handed to the checks
    rank_wall: np.ndarray | None = None  # wall per (rank, timed step)


def _maxrss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _stamp() -> tuple[float, float]:
    return time.perf_counter(), time.process_time()


def _conserved(d) -> tuple[float, float, float, float, float]:
    return (d.kinetic, d.potential, *(float(x) for x in d.momentum))


def run_serial(w: Workload, seed: int, cfg: SimulationConfig, steps: int,
               trace=None) -> DriverRun:
    t0 = time.perf_counter()
    ps = w.particles(seed)
    sim = Simulation(ps, cfg, trace=trace)
    sim.compute_forces()                       # kick-start: the warm-up pass
    d0 = _conserved(sim.diagnostics())
    stamps = [_stamp()]
    for _ in range(steps):
        sim.step()
        stamps.append(_stamp())
    rss = _maxrss_mb()
    wall, cpu = np.diff(np.array(stamps), axis=0).T
    return DriverRun(
        setup_s=stamps[0][0] - t0, step_s=list(wall), cpu_s=list(cpu),
        peak_rss_mb=rss, histories=[sim.history[-steps:]],
        final={"particles": sim.particles, "acc": sim.acceleration,
               "phi": sim.potential, "d0": d0,
               "d1": _conserved(sim.diagnostics())})


# Columns of the per-rank, per-step stamp rows written by the on_step hook.
_WALL, _CPU, _PID, _RSS, _DIAG = 0, 1, 2, 3, 4
_COLS = _DIAG + 5


def run_parallel(w: Workload, seed: int, cfg: SimulationConfig, steps: int,
                 trace=None, world=None) -> DriverRun:
    """``steps`` timed steps after one warm-up step.

    The driver folds its kick-start force pass into step 1, so step 1 is
    the warm-up and the timed window runs from the hook call that ends
    it to the hook call that ends step ``1 + steps``.  Conserved
    quantities are read inside the hook but outside the window: before
    the opening stamp and after the closing one.
    """
    n_steps = 1 + steps
    buf = RawArray("d", w.ranks * n_steps * _COLS)
    rows = np.frombuffer(buf).reshape(w.ranks, n_steps, _COLS)

    def on_step(sim) -> None:
        row = rows[sim.comm.rank, sim.step_count - 1]
        if sim.step_count == 1:
            row[_DIAG:] = _conserved(sim.diagnostics())
        row[_CPU] = time.process_time()
        row[_WALL] = time.perf_counter()
        if sim.step_count == n_steps:
            row[_PID] = os.getpid()
            row[_RSS] = _maxrss_mb()
            row[_DIAG:] = _conserved(sim.diagnostics())

    t0 = time.perf_counter()
    cpu0 = time.process_time()
    ps = w.particles(seed)
    results = run_parallel_simulation(
        w.ranks, ps, cfg, n_steps=n_steps, load_balance="flops",
        on_step=on_step, trace=trace, world=world)
    t1 = time.perf_counter()
    parent_cpu = time.process_time() - cpu0
    parent_rss = _maxrss_mb()

    wall = rows[0, :, _WALL]
    step_wall = np.diff(wall)
    if rows[0, -1, _PID] == os.getpid():
        # Thread ranks: process_time() already sums every thread.
        cpu = np.diff(rows[0, :, _CPU])
        rss = parent_rss
    else:
        # Forked ranks, plus the share of the parent's (watchdog) CPU
        # that falls in each step.
        cpu = np.diff(rows[:, :, _CPU], axis=1).sum(axis=0) \
            + parent_cpu * step_wall / (t1 - t0)
        rss = parent_rss + float(np.sum(rows[:, -1, _RSS]))

    full = gather_particles(results)
    ids = np.concatenate([r.particles.ids for r in results])
    order = np.argsort(ids, kind="stable")
    return DriverRun(
        setup_s=wall[0] - t0, step_s=list(step_wall), cpu_s=list(cpu),
        peak_rss_mb=rss,
        histories=[r.history[-steps:] for r in results],
        final={"particles": full, "ids": ids,
               "acc": np.concatenate([r.acc for r in results])[order],
               "phi": np.concatenate([r.phi for r in results])[order],
               "d0": tuple(rows[0, 0, _DIAG:]),
               "d1": tuple(rows[0, -1, _DIAG:])},
        rank_wall=np.diff(rows[:, :, _WALL], axis=1))


@dataclasses.dataclass
class FrontEnd:
    """Structures one front-end pass leaves behind."""

    tree: object
    boundary: object
    let: object
    decoded: object
    viewer: tuple[np.ndarray, np.ndarray]


def front_end_pass(ps: ParticleSet, cfg: SimulationConfig,
                   sort_cache: SortCache, rec=NULL) -> FrontEnd:
    """One step of everything but the force kernels, one span per call.

    The LET is built for a viewer the size of the local box, shifted one
    extent in +x: a touching neighbour domain, the expensive case.
    """
    with rec.span("integrator.drift", n=ps.n):
        ps.pos += ps.vel * cfg.dt
    with rec.span("sfc.keys", n=ps.n):
        box = BoundingBox.from_positions(ps.pos)
        keys = box.keys(ps.pos, cfg.curve)
    with rec.span("sfc.sort", n=ps.n) as sp:
        order = sort_cache.order_for(keys)
        sp.add(mode=sort_cache.last_mode)
    with rec.span("octree.build", n=ps.n) as sp:
        tree = build_octree(ps.pos, nleaf=cfg.nleaf, curve=cfg.curve,
                            box=box, keys=keys, order=order)
        sp.add(cells=tree.n_cells)
    with rec.span("octree.moments", cells=tree.n_cells):
        compute_moments(tree, ps.pos, ps.mass)
    with rec.span("octree.groups") as sp:
        make_groups(tree, cfg.ncrit)
        compute_opening_radii(tree, cfg.theta, cfg.mac)
        sp.add(groups=len(tree.group_first))
    with rec.span("parallel.boundary_build") as sp:
        spos, smass = ps.pos[tree.order], ps.mass[tree.order]
        boundary = boundary_structure(tree, spos, smass)
        sp.add(cells=boundary.n_cells)
    lo, hi = tree.bmin[0], tree.bmax[0]
    shift = np.array([hi[0] - lo[0], 0.0, 0.0])
    viewer = (lo + shift, hi + shift)
    with rec.span("parallel.let_build") as sp:
        let = build_let_for_box(tree, spos, smass, *viewer)
        sp.add(cells=let.n_cells, bytes=let.nbytes)
    with rec.span("simmpi.shm_encode", bytes=let.nbytes):
        env = encode_payload(let)
    with rec.span("simmpi.shm_decode", bytes=let.nbytes):
        decoded = decode_payload(env)
    return FrontEnd(tree, boundary, let, decoded, viewer)


def run_treepipe(w: Workload, seed: int, cfg: SimulationConfig, steps: int,
                 rec=NULL) -> DriverRun:
    t0 = time.perf_counter()
    ps = w.particles(seed)
    ids0 = ps.ids.copy()
    cache = SortCache()
    fe = front_end_pass(ps, cfg, cache, rec)   # cold pass: the warm-up
    stamps = [_stamp()]
    for k in range(steps):
        rec.step = k + 1
        fe = front_end_pass(ps, cfg, cache, rec)
        stamps.append(_stamp())
    rss = _maxrss_mb()
    wall, cpu = np.diff(np.array(stamps), axis=0).T
    return DriverRun(
        setup_s=stamps[0][0] - t0, step_s=list(wall), cpu_s=list(cpu),
        peak_rss_mb=rss, histories=[],
        final={"particles": ps, "ids0": ids0, "front_end": fe})


RUNNERS = {"serial": run_serial, "parallel": run_parallel,
           "treepipe": run_treepipe}


# -- checks (all outside the timed window) ----------------------------------

class Checks:
    """Each check is one operation: attempted, and failed or not."""

    def __init__(self) -> None:
        self.rows: list[dict] = []

    def add(self, name: str, ok: bool, value=None, limit=None) -> None:
        self.rows.append({"name": name, "ok": bool(ok),
                          "value": value, "limit": limit})

    def at_most(self, name: str, value: float, limit: float) -> None:
        self.add(name, np.isfinite(value) and value <= limit,
                 float(value), float(limit))

    @property
    def failed(self) -> int:
        return sum(not r["ok"] for r in self.rows)


def drifts(d0, d1, total_mass: float) -> tuple[float, float]:
    """(relative energy drift, momentum drift in units of M * v_rms)."""
    e0, e1 = d0[0] + d0[1], d1[0] + d1[1]
    p_scale = np.sqrt(2.0 * d0[0] * total_mass)
    dp = np.linalg.norm(np.subtract(d1[2:], d0[2:]))
    return abs(e1 - e0) / abs(e0), float(dp / p_scale)


def check_dynamics(w: Workload, seed: int, cfg: SimulationConfig,
                   run: DriverRun, smoke: bool) -> tuple[Checks, dict]:
    """Finite state, ids exactly once, force accuracy against direct
    summation, interaction counts in the paper's band, conservation."""
    ck = Checks()
    f = run.final
    ps = f["particles"]
    ck.add("finite_state", all(np.all(np.isfinite(a)) for a in
                               (ps.pos, ps.vel, f["acc"], f["phi"])))
    ck.add("ids_exactly_once",
           np.array_equal(np.sort(f.get("ids", ps.ids)), np.arange(w.n)))

    fa = validate_forces(ps, f["acc"], f["phi"], eps=cfg.softening,
                         sample_size=VALIDATION_TARGETS,
                         rng=np.random.default_rng(seed))
    measured = {"force_err_median": fa.median, "force_err_p99": fa.p99}

    last = [h[-1] for h in run.histories]
    n_pp = sum(bd.counts.n_pp for bd in last) / w.n
    n_pc = sum(bd.counts.n_pc for bd in last) / w.n
    ck.add("pp_per_particle_in_band",
           smoke or PP_BAND[0] <= n_pp <= PP_BAND[1], n_pp, PP_BAND)
    ck.add("pc_per_particle_in_band",
           smoke or PC_BAND[0] <= n_pc <= PC_BAND[1], n_pc, PC_BAND)

    measured["energy_drift"], measured["momentum_drift"] = \
        drifts(f["d0"], f["d1"], ps.total_mass)
    for key, value in measured.items():
        ck.at_most(key, value, ceiling(w.name, key, smoke))
    return ck, {**measured, "pp_per_particle": n_pp, "pc_per_particle": n_pc}


def check_treepipe(run: DriverRun) -> tuple[Checks, dict]:
    """Finite state, ids untouched, octree and LET invariants on the final
    structures, and the codec returning the LET it was given."""
    ck = Checks()
    f = run.final
    ps, fe = f["particles"], f["front_end"]
    ck.add("finite_state", bool(np.all(np.isfinite(ps.pos))))
    ck.add("ids_exactly_once", np.array_equal(ps.ids, f["ids0"]))
    for name, fn in (
            ("check_octree",
             lambda: check_octree(fe.tree, ps.pos, ps.mass)),
            ("check_let_boundary",
             lambda: check_let(fe.boundary, total_mass=ps.total_mass)),
            ("check_let",
             lambda: check_let(fe.let, *fe.viewer,
                               total_mass=ps.total_mass))):
        try:
            fn()
            ck.add(name, True)
        except InvariantViolation as exc:
            ck.add(name, False, str(exc))
    ck.add("codec_round_trip", all(
        np.array_equal(getattr(fe.let, fld.name), getattr(fe.decoded, fld.name))
        for fld in dataclasses.fields(fe.let)))
    values = {"boundary_cells": fe.boundary.n_cells,
              "let_cells": fe.let.n_cells, "let_bytes": fe.let.nbytes,
              "tree_cells": fe.tree.n_cells}
    return ck, values


# -- one end-to-end measurement ----------------------------------------------

def steps_for(w: Workload, seconds: float) -> int:
    return max(2, round(w.steps * seconds / REF_SECONDS))


def cold_setup(w: Workload, seed: int, smoke: bool, t_start: float) -> float:
    """``setup_s`` of this process: process start to the end of the
    warm-up pass, with no timed step after it (``run.py --setup-only``)."""
    if smoke:
        w = w.smoke()
    t_begin = time.perf_counter()
    return t_begin - t_start + RUNNERS[w.kind](w, seed, w.config(), 0).setup_s


def cold_setup_in_child(name: str, seed: int, smoke: bool) -> float:
    """The same set-up in a fresh interpreter, so that imports, lazy
    initialisation, first-touch allocation and cache fills are paid again."""
    cmd = [sys.executable, str(Path(__file__).with_name("run.py")),
           "--workload", name, "--seed", str(seed), "--setup-only"]
    proc = subprocess.run(cmd + (["--smoke"] if smoke else []),
                          capture_output=True, text=True, check=True)
    return float(json.loads(proc.stdout.splitlines()[-1])["setup_s"])


def run_workload(w: Workload, seed: int, seconds: float = REF_SECONDS,
                 smoke: bool = False, t_start: float | None = None,
                 setup_reps: int = SETUP_REPS, steps: int | None = None,
                 config_overrides: dict | None = None) -> dict:
    """Run one workload untraced; returns the result document.

    ``t_start`` is the process start (set-up is counted from there);
    ``steps``, ``setup_reps`` and ``config_overrides`` exist for
    test_ledger.py only -- the CLI never sets them.
    """
    t_begin = time.perf_counter()
    if smoke:
        w = w.smoke()
    cfg = w.config(**(config_overrides or {}))
    k = steps if steps is not None else steps_for(w, seconds)
    run = RUNNERS[w.kind](w, seed, cfg, k)
    preamble = t_begin - t_start if t_start is not None else 0.0

    if w.kind == "treepipe":
        checks, values = check_treepipe(run)
    else:
        checks, values = check_dynamics(w, seed, cfg, run, smoke)

    # This process's set-up was cold; so is each child's.
    setups = [preamble + run.setup_s]
    setups += [cold_setup_in_child(w.name, seed, smoke)
               for _ in range(setup_reps - 1)]

    metrics = {
        "step_s": (fastest(run.step_s), "s"),
        "cpu_step_s": (cheapest_window(run.cpu_s, CPU_WINDOW), "s"),
        "setup_s": (statistics.median(setups), "s"),
        "peak_rss_mb": (run.peak_rss_mb, "MB"),
    }
    return {
        "workload": w.name, "seed": seed, "smoke": smoke, "trace": 0,
        "n": w.n, "steps": k,
        "metrics": {m: {"value": v, "unit": u} for m, (v, u) in metrics.items()},
        "attempted": k + len(checks.rows), "failed": checks.failed,
        "correct": checks.failed == 0,
        "checks": checks.rows, "values": values,
        "samples": {"step_s": [float(x) for x in run.step_s],
                    "cpu_step_s": [float(x) for x in run.cpu_s],
                    "setup_s": setups},
    }
