"""Reconstruct Table II, overlap and imbalance reports from a trace.

``python -m repro.obs.report trace.json`` reads a Chrome trace-event
file produced by the instrumented drivers and rebuilds, *from the trace
alone*:

1. the Table II phase breakdown -- per-rank, per-step phase times
   reduced with the same slowest-rank-then-step-average rule as
   :func:`repro.parallel.statistics.aggregate_rank_histories` (the
   driver-side view of the identical measurement: one source of truth,
   two views);
2. an overlap/hiding summary -- per step, the fraction of LET
   communication hidden behind local gravity work;
3. a per-rank imbalance table (gravity seconds and particle counts);
4. the Sec. VI-A performance accounting (:mod:`repro.obs.perf`) --
   per-rank/per-phase achieved flop-rates from the spans' exact
   interaction tallies, a per-step rate timeline, and the efficiency
   ratio against the calibrated :mod:`repro.perfmodel.gpu` rates
   (``--json`` exposes it under the ``"perf"`` key).

``python -m repro.obs.report a.json b.json`` instead *diffs* two runs
phase by phase (absolute and relative deltas on every Table II row,
the total, blocked-recv wait and step-time imbalance); with
``--threshold R`` the exit code is 1 whenever any phase of ``b``
regressed more than the relative threshold -- so "fault-free vs
degraded" or "theta=0.3 vs theta=0.8" comparisons become one command
with a CI-able verdict.

Options: ``--validate`` schema-checks the file(s) first, ``--json``
emits the statistics (or the diff) as JSON instead of text tables.
"""

from __future__ import annotations

import argparse
import json
import sys
from collections import defaultdict
from typing import Any

from ..core.step import SPAN_TO_FIELD, StepBreakdown, TABLE2_PHASES
from ..gravity.flops import InteractionCounts
from ..parallel.statistics import RunStatistics, aggregate_rank_histories
from .export import validate_chrome_trace
from .perf import perf_from_trace, perf_lines


def load_trace(path) -> dict:
    """Load a Chrome trace-event JSON file."""
    with open(path) as fh:
        return json.load(fh)


def histories_from_trace(doc: dict
                         ) -> tuple[list[list[StepBreakdown]], list[int],
                                    list[float]]:
    """Rebuild per-rank :class:`StepBreakdown` histories from a trace.

    Returns ``(histories, particle_counts, recv_waits)`` shaped exactly
    like the inputs of :func:`aggregate_rank_histories`: one history per
    rank (steps truncated to the shortest rank), final-step particle
    counts, and per-rank total blocked LET wait seconds.
    """
    by_rank_step: dict[tuple[int, int], StepBreakdown] = {}
    counts: dict[tuple[int, int], InteractionCounts] = {}
    n_particles: dict[int, int] = {}
    recv_waits: dict[int, float] = defaultdict(float)
    quadrupole = True

    for e in doc.get("traceEvents", ()):
        if e.get("ph") != "X" or e.get("cat") != "phase":
            continue
        if e.get("name") not in SPAN_TO_FIELD:
            continue
        args = e.get("args", {})
        rank = int(e["tid"])
        step = int(args.get("step", 0))
        key = (rank, step)
        bd = by_rank_step.get(key)
        if bd is None:
            bd = by_rank_step[key] = StepBreakdown()
            counts[key] = InteractionCounts(n_pp=0, n_pc=0)
        bd.book(e["name"], e["dur"] / 1e6)
        if "n_pp" in args or "n_pc" in args:
            counts[key].n_pp += int(args.get("n_pp", 0))
            counts[key].n_pc += int(args.get("n_pc", 0))
        if "quadrupole" in args:
            quadrupole = bool(args["quadrupole"])
        if "n_particles" in args:
            n_particles[rank] = int(args["n_particles"])
        if e["name"] == "non_hidden_comm":
            recv_waits[rank] += e["dur"] / 1e6

    if not by_rank_step:
        raise ValueError("trace contains no phase spans "
                         "(was the run traced with trace= enabled?)")
    ranks = sorted({r for r, _ in by_rank_step})
    n_steps = min(max(s for r2, s in by_rank_step if r2 == r) + 1
                  for r in ranks)
    histories: list[list[StepBreakdown]] = []
    for r in ranks:
        history = []
        for s in range(n_steps):
            bd = by_rank_step.get((r, s), StepBreakdown())
            c = counts.get((r, s), InteractionCounts(n_pp=0, n_pc=0))
            c.quadrupole = quadrupole
            bd.counts = c
            history.append(bd)
        histories.append(history)
    particle_counts = [n_particles.get(r, 0) for r in ranks]
    waits = [recv_waits[r] for r in ranks]
    return histories, particle_counts, waits


def statistics_from_trace(doc: dict) -> RunStatistics:
    """The trace-side Table II reduction (slowest rank, step-averaged)."""
    histories, particle_counts, waits = histories_from_trace(doc)
    return aggregate_rank_histories(histories, particle_counts,
                                    recv_waits=waits)


def table2_lines(stats: RunStatistics) -> list[str]:
    """Render the reconstructed Table II phase breakdown."""
    lines = [f"Table II breakdown from trace "
             f"({stats.n_ranks} ranks, {stats.n_particles_total} particles, "
             f"slowest-rank reduction, step-averaged):"]
    for phase in TABLE2_PHASES:
        lines.append(f"  {phase:18s} {getattr(stats.mean_step, phase):10.6f} s")
    lines.append(f"  {'TOTAL':18s} {stats.mean_step.total:10.6f} s")
    pp, pc = stats.interactions_per_particle
    lines.append(f"  pp/particle {pp:.1f}  pc/particle {pc:.1f}")
    lines.append(f"  aggregate force-kernel rate {stats.gpu_gflops_total:.3f} Gflops")
    lines.append(f"  slowest-rank blocked recv {stats.recv_wait_max:.6f} s")
    return lines


def overlap_lines(histories: list[list[StepBreakdown]]) -> list[str]:
    """Per-step communication-hiding summary.

    For each step the hidden fraction is
    ``1 - wait / (wait + gravity)`` with both terms at their
    slowest-rank value: the share of the LET-exchange window the slowest
    rank spent computing rather than blocked (Sec. III-B2's overlap
    claim, measured)."""
    lines = ["Overlap (fraction of LET comm hidden behind gravity):"]
    n_steps = min(len(h) for h in histories)
    for s in range(n_steps):
        wait = max(h[s].non_hidden_comm for h in histories)
        gravity = max(h[s].gravity_local + h[s].gravity_let
                      for h in histories)
        denom = wait + gravity
        hidden = 1.0 - wait / denom if denom > 0 else 1.0
        lines.append(f"  step {s}: hidden {hidden:6.1%}  "
                     f"(blocked {wait:.6f} s vs gravity {gravity:.6f} s)")
    return lines


def imbalance_lines(histories: list[list[StepBreakdown]],
                    particle_counts: list[int]) -> list[str]:
    """Per-rank step-time/particle imbalance table."""
    lines = ["Per-rank imbalance (mean over steps):",
             f"  {'rank':>4s} {'step total':>12s} {'gravity':>12s} "
             f"{'particles':>10s}"]
    n_steps = min(len(h) for h in histories)
    totals = []
    for r, h in enumerate(histories):
        tot = sum(bd.total for bd in h[:n_steps]) / n_steps
        grav = sum(bd.gravity_local + bd.gravity_let
                   for bd in h[:n_steps]) / n_steps
        totals.append(tot)
        n = particle_counts[r] if r < len(particle_counts) else 0
        lines.append(f"  {r:>4d} {tot:>12.6f} {grav:>12.6f} {n:>10d}")
    mean = sum(totals) / len(totals)
    if mean > 0:
        lines.append(f"  step-time imbalance (max/mean): "
                     f"{max(totals) / mean:.3f}")
    return lines


def loadbalance_summary(doc: dict) -> dict[str, Any] | None:
    """Measured-mode feedback summary: imbalance over time, re-cut count.

    Scans ``domain_update`` spans for the ``lb_imbalance`` /
    ``rebalanced`` args the measured-mode driver attaches plus the
    nested ``rebalance`` spans.  Only rank 0's copies are read -- the
    ratio is computed collectively, so every rank records the same
    value.  Returns ``None`` when the run did not use
    ``load_balance="measured"`` (no such args in the trace).

    ``rebalance`` spans deliberately stay out of :data:`SPAN_TO_FIELD`:
    they nest inside ``domain_update`` and would double-count its time.
    """
    checks: list[dict[str, Any]] = []
    n_recuts = 0
    for e in doc.get("traceEvents", ()):
        if e.get("ph") != "X" or e.get("cat") != "phase":
            continue
        if int(e.get("tid", -1)) != 0:
            continue
        args = e.get("args", {})
        if e.get("name") == "rebalance":
            n_recuts += 1
        elif e.get("name") == "domain_update" and "rebalanced" in args:
            checks.append({"step": int(args.get("step", 0)),
                           "imbalance": args.get("lb_imbalance"),
                           "rebalanced": bool(args["rebalanced"])})
    if not checks:
        return None
    return {"rebalances": n_recuts, "checks": checks}


def loadbalance_lines(summary: dict[str, Any]) -> list[str]:
    """Render the measured-mode imbalance-over-time section."""
    lines = [f"Load balance (measured-cost feedback, "
             f"{summary['rebalances']} re-cuts):"]
    for c in summary["checks"]:
        ratio = c["imbalance"]
        shown = f"{ratio:6.3f}" if ratio is not None else "  cold"
        action = "re-cut" if c["rebalanced"] else "kept boundaries"
        lines.append(f"  step {c['step']}: imbalance {shown}  {action}")
    return lines


def render_report(doc: dict) -> str:
    """The full text report for one trace document."""
    histories, particle_counts, waits = histories_from_trace(doc)
    stats = aggregate_rank_histories(histories, particle_counts,
                                     recv_waits=waits)
    sections = [table2_lines(stats), overlap_lines(histories),
                imbalance_lines(histories, particle_counts)]
    perf = perf_from_trace(doc)
    if perf is not None:
        sections.append(perf_lines(perf))
    lb = loadbalance_summary(doc)
    if lb is not None:
        sections.append(loadbalance_lines(lb))
    return "\n\n".join("\n".join(s) for s in sections)


def _json_report(doc: dict) -> dict[str, Any]:
    histories, particle_counts, waits = histories_from_trace(doc)
    stats = aggregate_rank_histories(histories, particle_counts,
                                     recv_waits=waits)
    out = {
        "n_ranks": stats.n_ranks,
        "n_particles_total": stats.n_particles_total,
        "phases": stats.mean_step.as_dict(),
        "total": stats.mean_step.total,
        "interactions_per_particle": list(stats.interactions_per_particle),
        "imbalance": stats.imbalance,
        "recv_wait_max": stats.recv_wait_max,
        "gpu_gflops_total": stats.gpu_gflops_total,
    }
    perf = perf_from_trace(doc)
    if perf is not None:
        out["perf"] = perf
    lb = loadbalance_summary(doc)
    if lb is not None:
        out["lb"] = lb
    return out


# -- run-to-run diffing ----------------------------------------------------

#: Time-like rows the regression threshold applies to (phase rows plus
#: the total -- a slower ``b`` on any of them can trip the exit code).
_DIFF_TIME_ROWS = tuple(TABLE2_PHASES) + ("total",)


def delta_row(a: float, b: float) -> dict[str, float | None]:
    """One A-to-B comparison row: ``a``, ``b``, ``delta`` (= b - a) and
    ``rel`` (delta / a; ``None`` when ``a`` is 0 -- a value appearing
    from nowhere has no meaningful relative change).

    Shared by the trace diff below and the benchmark-history verdicts
    in :mod:`repro.obs.bench` -- one threshold machinery, two gates.
    """
    return {"a": a, "b": b, "delta": b - a,
            "rel": (b - a) / a if a > 0 else None}


def row_regressed(row: dict[str, Any], threshold: float,
                  min_abs: float = 0.0) -> bool:
    """Did ``b`` regress (grow) beyond the relative threshold?

    A row regresses when its relative growth exceeds ``threshold`` *and*
    the absolute growth exceeds ``min_abs`` (the floor keeps noise in
    near-empty rows from tripping CI).  A value growing from exactly
    zero counts as a regression once it clears the absolute floor.
    """
    if row["delta"] <= min_abs:
        return False
    return row["rel"] is None or row["rel"] > threshold


def diff_reports(ra: dict[str, Any], rb: dict[str, Any]) -> dict[str, Any]:
    """Phase-by-phase delta between two ``_json_report`` dicts."""
    rows = {phase: delta_row(ra["phases"][phase], rb["phases"][phase])
            for phase in TABLE2_PHASES}
    rows["total"] = delta_row(ra["total"], rb["total"])
    return {
        "n_ranks": {"a": ra["n_ranks"], "b": rb["n_ranks"]},
        "rows": rows,
        "recv_wait_max": delta_row(ra["recv_wait_max"],
                                   rb["recv_wait_max"]),
        "imbalance": delta_row(ra["imbalance"], rb["imbalance"]),
    }


def diff_regressions(diff: dict[str, Any], threshold: float,
                     min_abs: float = 0.0) -> list[str]:
    """Time rows of ``b`` that regressed beyond ``threshold`` (see
    :func:`row_regressed` for the threshold/floor semantics)."""
    return [name for name in _DIFF_TIME_ROWS
            if row_regressed(diff["rows"][name], threshold, min_abs)]


def diff_lines(diff: dict[str, Any], threshold: float | None = None,
               min_abs: float = 0.0) -> list[str]:
    """Render the run-to-run delta table."""
    def fmt(r: dict[str, Any], label: str) -> str:
        rel = f"{r['rel']:+9.1%}" if r["rel"] is not None else \
            ("      new" if r["delta"] > 0 else "        -")
        return (f"  {label:18s} {r['a']:12.6f} {r['b']:12.6f} "
                f"{r['delta']:+12.6f} {rel}")

    lines = [f"Run diff (A -> B, {diff['n_ranks']['a']} vs "
             f"{diff['n_ranks']['b']} ranks; per-step, slowest-rank "
             "reduction):",
             f"  {'phase':18s} {'A [s]':>12s} {'B [s]':>12s} "
             f"{'delta':>12s} {'rel':>9s}"]
    for name in _DIFF_TIME_ROWS:
        lines.append(fmt(diff["rows"][name],
                         name if name != "total" else "TOTAL"))
    lines.append(fmt(diff["recv_wait_max"], "recv_wait_max"))
    lines.append(fmt(diff["imbalance"], "imbalance(max/mean)"))
    if threshold is not None:
        bad = diff_regressions(diff, threshold, min_abs)
        if bad:
            lines.append(f"  REGRESSION: {', '.join(bad)} slower than A "
                         f"beyond {threshold:.1%}")
        else:
            lines.append(f"  OK: no phase slower than A beyond "
                         f"{threshold:.1%}")
    return lines


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.obs.report",
        description="Reconstruct Table II / overlap / imbalance reports "
                    "from a Chrome trace-event file, or diff two of "
                    "them phase by phase.")
    parser.add_argument("trace", help="trace JSON written by the tracer")
    parser.add_argument("trace_b", nargs="?", default=None,
                        help="second trace: diff mode (A -> B)")
    parser.add_argument("--validate", action="store_true",
                        help="schema-check the trace(s) before reporting")
    parser.add_argument("--json", action="store_true", dest="as_json",
                        help="emit the statistics (or diff) as JSON")
    parser.add_argument("--threshold", type=float, default=None,
                        metavar="REL",
                        help="diff mode: exit 1 when any phase of B is "
                             "slower than A by more than this relative "
                             "fraction (e.g. 0.1 = 10%%)")
    parser.add_argument("--min-abs", type=float, default=0.0,
                        metavar="SECONDS",
                        help="diff mode: ignore regressions smaller than "
                             "this many absolute seconds (noise floor)")
    args = parser.parse_args(argv)

    doc = load_trace(args.trace)
    if args.validate:
        validate_chrome_trace(doc)
        print(f"{args.trace}: schema OK "
              f"({len(doc['traceEvents'])} events)", file=sys.stderr)

    if args.trace_b is None:
        if args.as_json:
            print(json.dumps(_json_report(doc), indent=2, sort_keys=True))
        else:
            print(render_report(doc))
        return 0

    doc_b = load_trace(args.trace_b)
    if args.validate:
        validate_chrome_trace(doc_b)
        print(f"{args.trace_b}: schema OK "
              f"({len(doc_b['traceEvents'])} events)", file=sys.stderr)
    diff = diff_reports(_json_report(doc), _json_report(doc_b))
    regressions = [] if args.threshold is None else \
        diff_regressions(diff, args.threshold, args.min_abs)
    if args.as_json:
        out = dict(diff)
        if args.threshold is not None:
            out["threshold"] = args.threshold
            out["regressions"] = regressions
        print(json.dumps(out, indent=2, sort_keys=True))
    else:
        print("\n".join(diff_lines(diff, args.threshold, args.min_abs)))
    return 1 if regressions else 0


if __name__ == "__main__":
    sys.exit(main())
