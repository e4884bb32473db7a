"""Achieved flop-rate telemetry: the paper's Sec. VI-A accounting.

The paper's headline number -- 24.77 Pflops sustained -- is *derived*,
not sampled from hardware counters: measured interaction counts times
the fixed per-interaction flop costs (23 per p-p, 65 per quadrupole
p-c), divided by wall-clock time.  This module reconstructs exactly
that pipeline from a Chrome trace alone:

- **per-rank / per-phase achieved rate** -- the ``gravity_local`` and
  ``gravity_let`` spans already carry their exact ``n_pp``/``n_pc``
  tallies, so flops divided by span seconds is the achieved Gflop/s of
  each rank's force kernels;
- **per-step timeline** -- machine-wide flops over the slowest rank's
  kernel seconds (the step finishes when the slowest rank does), plus
  the application-level rate over the whole-step time;
- **model efficiency** -- the achieved rate over the calibrated
  :mod:`repro.perfmodel.gpu` sustained-rate prediction at the same
  p-p/p-c mix.  This is our stand-in for the paper's %-of-peak: the
  model *is* the paper's hardware, so the ratio says how far this
  reproduction sits from the machine it models;
- **sustained summary** -- total flops over the run's slowest-rank
  makespan, expressed in Gflop/s, Pflop/s and as a fraction of the
  paper's 24.77 Pflops.

Everything is a pure function of the trace bytes: a byte-identical
virtual-clock trace yields a byte-identical performance report, across
runs and across SimMPI transports.

The only live (non-trace) piece is :func:`book_force_rate`, which
gauges the latest force pass's achieved rate into the metrics registry
at phase granularity -- one gauge write per force computation, never
per interaction, so it rides the same cost budget as the rest of the
always-on metrics (measured in ``benchmarks/bench_obs_overhead.py``).
"""

from __future__ import annotations

from collections import defaultdict
from typing import Any

from ..gravity.flops import FLOPS_PER_PC, FLOPS_PER_PC_MONOPOLE, FLOPS_PER_PP

#: The paper's sustained application rate on 18600 GPUs (Pflops).
PAPER_PFLOPS = 24.77

#: The force-kernel phases whose spans carry interaction tallies.
GRAVITY_PHASES = ("gravity_local", "gravity_let")


def _rate_gflops(flops: float, seconds: float) -> float | None:
    """flops/seconds in Gflop/s; ``None`` when no time was spent."""
    if seconds <= 0.0:
        return None
    return flops / seconds / 1.0e9


def perf_from_trace(doc: dict, variant: str = "tuned") -> dict[str, Any] | None:
    """Sec. VI-A performance accounting reconstructed from one trace.

    Returns ``None`` when the trace carries no interaction tallies on
    its gravity spans (untraced or foreign traces) so callers can omit
    the section gracefully.  ``variant`` selects the
    :func:`~repro.perfmodel.gpu.tree_kernel_rates` kernel variant the
    efficiency ratio is computed against.
    """
    from .report import SPAN_TO_FIELD

    # (rank, phase) -> [seconds, n_pp, n_pc]
    rank_phase: dict[tuple[int, str], list] = {}
    # backend name -> [seconds, n_pp, n_pc]; spans without a ``backend``
    # attribute ran numpy (every other backend stamps it).
    backend_acc: dict[str, list] = {}
    # step -> rank -> seconds (gravity phases / all Table II phases)
    step_gravity: dict[int, dict[int, float]] = defaultdict(
        lambda: defaultdict(float))
    step_total: dict[int, dict[int, float]] = defaultdict(
        lambda: defaultdict(float))
    step_counts: dict[int, list] = defaultdict(lambda: [0, 0])
    quadrupole = True
    saw_counts = False

    for e in doc.get("traceEvents", ()):
        if e.get("ph") != "X" or e.get("cat") != "phase":
            continue
        name = e.get("name")
        if name not in SPAN_TO_FIELD:
            continue
        args = e.get("args", {})
        rank = int(e.get("tid", 0))
        step = int(args.get("step", 0))
        dur = e["dur"] / 1e6
        step_total[step][rank] += dur
        if name not in GRAVITY_PHASES:
            continue
        rec = rank_phase.setdefault((rank, name), [0.0, 0, 0])
        rec[0] += dur
        rec[1] += int(args.get("n_pp", 0))
        rec[2] += int(args.get("n_pc", 0))
        if "n_pp" in args or "n_pc" in args:
            saw_counts = True
        if "quadrupole" in args:
            quadrupole = bool(args["quadrupole"])
        step_gravity[step][rank] += dur
        c = step_counts[step]
        c[0] += int(args.get("n_pp", 0))
        c[1] += int(args.get("n_pc", 0))
        brec = backend_acc.setdefault(str(args.get("backend", "numpy")),
                                      [0.0, 0, 0])
        brec[0] += dur
        brec[1] += int(args.get("n_pp", 0))
        brec[2] += int(args.get("n_pc", 0))

    if not saw_counts:
        return None

    per_pc = FLOPS_PER_PC if quadrupole else FLOPS_PER_PC_MONOPOLE

    def flops_of(n_pp: int, n_pc: int) -> int:
        return FLOPS_PER_PP * n_pp + per_pc * n_pc

    from ..perfmodel.gpu import tree_kernel_rates
    rates = tree_kernel_rates(variant=variant)

    def model_gflops(n_pp: int, n_pc: int) -> float | None:
        if n_pp + n_pc <= 0:
            return None
        return rates.aggregate_gflops(n_pp, n_pc, quadrupole)

    def efficiency(achieved: float | None, model: float | None
                   ) -> float | None:
        if achieved is None or not model:
            return None
        return achieved / model

    # -- per-rank, per-phase achieved rates -------------------------------
    per_rank: dict[str, dict[str, Any]] = {}
    for rank in sorted({r for r, _ in rank_phase}):
        entry: dict[str, Any] = {}
        tot_sec, tot_pp, tot_pc = 0.0, 0, 0
        for phase in GRAVITY_PHASES:
            sec, n_pp, n_pc = rank_phase.get((rank, phase), (0.0, 0, 0))
            fl = flops_of(n_pp, n_pc)
            entry[phase] = {"seconds": sec, "n_pp": n_pp, "n_pc": n_pc,
                            "flops": fl, "gflops": _rate_gflops(fl, sec)}
            tot_sec += sec
            tot_pp += n_pp
            tot_pc += n_pc
        fl = flops_of(tot_pp, tot_pc)
        achieved = _rate_gflops(fl, tot_sec)
        entry["combined"] = {"seconds": tot_sec, "n_pp": tot_pp,
                             "n_pc": tot_pc, "flops": fl,
                             "gflops": achieved}
        entry["model_efficiency"] = efficiency(
            achieved, model_gflops(tot_pp, tot_pc))
        per_rank[str(rank)] = entry

    # -- per-step timeline (slowest-rank reduction, as in Table II) -------
    timeline: list[dict[str, Any]] = []
    total_flops = 0
    kernel_seconds = 0.0
    wall_seconds = 0.0
    n_pp_total = n_pc_total = 0
    for step in sorted(step_total):
        n_pp, n_pc = step_counts.get(step, (0, 0))
        fl = flops_of(n_pp, n_pc)
        ksec = max(step_gravity[step].values()) if step_gravity.get(step) \
            else 0.0
        tsec = max(step_total[step].values())
        timeline.append({
            "step": step, "n_pp": n_pp, "n_pc": n_pc, "flops": fl,
            "kernel_seconds": ksec, "step_seconds": tsec,
            "kernel_gflops": _rate_gflops(fl, ksec),
            "application_gflops": _rate_gflops(fl, tsec),
        })
        total_flops += fl
        kernel_seconds += ksec
        wall_seconds += tsec
        n_pp_total += n_pp
        n_pc_total += n_pc

    # -- per-backend achieved rates (all ranks, both gravity phases) ------
    backends: dict[str, dict[str, Any]] = {}
    for name in sorted(backend_acc):
        sec, n_pp, n_pc = backend_acc[name]
        fl = flops_of(n_pp, n_pc)
        backends[name] = {"seconds": sec, "n_pp": n_pp, "n_pc": n_pc,
                          "flops": fl, "gflops": _rate_gflops(fl, sec)}

    # -- sustained rates and model efficiency -----------------------------
    kernel_gflops = _rate_gflops(total_flops, kernel_seconds)
    application_gflops = _rate_gflops(total_flops, wall_seconds)
    mix = model_gflops(n_pp_total, n_pc_total)
    return {
        "counts": {"n_pp": n_pp_total, "n_pc": n_pc_total,
                   "quadrupole": quadrupole, "flops": total_flops,
                   "flops_per_pp": FLOPS_PER_PP, "flops_per_pc": per_pc},
        "per_rank": per_rank,
        "backends": backends,
        "timeline": timeline,
        "model": {"variant": variant, "rpp_gflops": rates.rpp_gflops,
                  "rpc_gflops": rates.rpc_gflops, "mix_gflops": mix},
        "sustained": {
            "kernel_seconds": kernel_seconds,
            "wall_seconds": wall_seconds,
            "kernel_gflops": kernel_gflops,
            "application_gflops": application_gflops,
            "application_pflops": None if application_gflops is None
            else application_gflops / 1.0e6,
            "fraction_of_paper": None if application_gflops is None
            else application_gflops / (PAPER_PFLOPS * 1.0e6),
        },
        "efficiency": {"kernel": efficiency(kernel_gflops, mix),
                       "application": efficiency(application_gflops, mix)},
    }


def _fmt_rate(gflops: float | None) -> str:
    return f"{gflops:11.4g}" if gflops is not None else f"{'--':>11s}"


def _fmt_eff(eff: float | None) -> str:
    return f"{eff:10.3e}" if eff is not None else f"{'--':>10s}"


def perf_lines(perf: dict[str, Any]) -> list[str]:
    """Render the "Performance" report section from a perf summary."""
    c = perf["counts"]
    s = perf["sustained"]
    m = perf["model"]
    e = perf["efficiency"]
    lines = ["Performance (Sec. VI-A: counted interactions x flop costs "
             "/ wall time):",
             f"  interactions {c['n_pp']} pp x {c['flops_per_pp']} flops"
             f" + {c['n_pc']} pc x {c['flops_per_pc']} flops"
             f" = {c['flops']} flops"
             f" ({'quadrupole' if c['quadrupole'] else 'monopole'})",
             f"  kernel rate      {_fmt_rate(s['kernel_gflops'])} Gflops"
             f" over {s['kernel_seconds']:.6f} s of force work",
             f"  application rate {_fmt_rate(s['application_gflops'])} Gflops"
             f" over {s['wall_seconds']:.6f} s wall"]
    if s["fraction_of_paper"] is not None:
        lines.append(f"  = {s['application_pflops']:.3e} Pflops, "
                     f"{s['fraction_of_paper']:.3e} of the paper's "
                     f"{PAPER_PFLOPS} Pflops")
    mix = f"{m['mix_gflops']:.0f}" if m["mix_gflops"] is not None else "--"
    lines.append(f"  model (K20X {m['variant']}): pp {m['rpp_gflops']:.0f}"
                 f" / pc {m['rpc_gflops']:.0f} Gflops, {mix} at this mix;"
                 f" efficiency kernel {_fmt_eff(e['kernel'])}"
                 f" application {_fmt_eff(e['application'])}")
    for name in sorted(perf.get("backends", ())):
        b = perf["backends"][name]
        lines.append(f"  backend {name}: {_fmt_rate(b['gflops']).strip()}"
                     f" Gflops over {b['seconds']:.6f} s"
                     f" ({b['n_pp']} pp + {b['n_pc']} pc)")
    lines.append(f"  {'rank':>6s} {'local':>11s} {'let':>11s} "
                 f"{'combined':>11s} {'model-eff':>10s}   [Gflops]")
    for rank in sorted(perf["per_rank"], key=int):
        entry = perf["per_rank"][rank]
        lines.append(
            f"  {rank:>6s} {_fmt_rate(entry['gravity_local']['gflops'])}"
            f" {_fmt_rate(entry['gravity_let']['gflops'])}"
            f" {_fmt_rate(entry['combined']['gflops'])}"
            f" {_fmt_eff(entry['model_efficiency'])}")
    lines.append(f"  {'step':>6s} {'flops':>14s} {'kernel':>11s} "
                 f"{'application':>11s}   [Gflops]")
    for t in perf["timeline"]:
        lines.append(f"  {t['step']:>6d} {t['flops']:>14d}"
                     f" {_fmt_rate(t['kernel_gflops'])}"
                     f" {_fmt_rate(t['application_gflops'])}")
    return lines


def book_force_rate(registry, rank: int, flops: float,
                    gravity_seconds: float) -> None:
    """Gauge the latest force pass's achieved kernel rate (Gflop/s).

    One gauge write per *force computation* -- phase granularity, like
    every other metric in the hot path; the per-call cost is measured
    in ``benchmarks/bench_obs_overhead.py`` and stays microseconds
    against a multi-millisecond force pass.
    """
    if gravity_seconds <= 0.0:
        return
    registry.gauge(
        "force_gflops",
        "Achieved force-kernel Gflop/s of the latest force computation",
        labelnames=("rank",)).set(flops / gravity_seconds / 1.0e9,
                                  rank=rank)
