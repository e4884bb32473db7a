"""The distributed step at a fixed config: interaction counts and phase times.

Four SimMPI ranks on clustered Milky-Way initial conditions.  Two entry
points:

- :func:`run_bench`, the registered ``step_pipeline`` runner
  (``python -m repro.obs.bench run step_pipeline``): one run appended
  to ``benchmarks/history/step_pipeline.jsonl``, counts gating, wall
  seconds advisory;
- :func:`test_step_counts_golden`: the interaction counts must equal the
  committed ``benchmarks/step_pipeline_golden.json`` -- a change to the
  force pipeline may change *when* things are computed, never *what*.
"""

import json
import time
from pathlib import Path

from repro import SimulationConfig
from repro.core.parallel_simulation import run_parallel_simulation
from repro.core.step import TABLE2_PHASES
from repro.ics import milky_way_model
from repro.obs.bench import BenchResult, register_bench

GOLDEN = Path(__file__).resolve().parent / "step_pipeline_golden.json"

N_RANKS = 4


def _run(n, steps, seed=42):
    """One timed run; returns (wall, per-phase seconds, counts, peak)."""
    ps = milky_way_model(n, seed=seed)
    config = SimulationConfig(theta=0.5, softening=0.1, dt=0.1)
    t0 = time.perf_counter()
    sims = run_parallel_simulation(N_RANKS, ps, config, n_steps=steps,
                                   timeout=3600.0)
    wall = time.perf_counter() - t0
    phases = {ph: 0.0 for ph in TABLE2_PHASES}
    n_pp = n_pc = 0
    for s in sims:
        for bd in s.history:
            for ph in TABLE2_PHASES:
                phases[ph] += getattr(bd, ph)
            n_pp += bd.counts.n_pp
            n_pc += bd.counts.n_pc
    max_frontier = max(s._result.max_frontier for s in sims)
    return wall, phases, (n_pp, n_pc), max_frontier


@register_bench("step_pipeline",
                description="distributed step: interaction counts (gate) "
                            "and per-phase wall time",
                root_artifact="BENCH_step.json")
def run_bench(n=2000, steps=1, seed=42) -> BenchResult:
    """Canonical runner: one run at a fixed, small config.

    The interaction tallies are deterministic at fixed (n, ranks,
    steps, seed) -- they gate; the phase/wall seconds ride along as
    advisory wall metrics.
    """
    wall, phases, (n_pp, n_pc), max_frontier = _run(n, steps, seed=seed)
    return BenchResult(
        bench="step_pipeline",
        config={"n": n, "ranks": N_RANKS, "steps": steps, "seed": seed,
                "pipeline": "fast"},
        counts={"n_pp": n_pp, "n_pc": n_pc},
        wall={"wall_s": wall,
              "gravity_s": phases["gravity_local"] + phases["gravity_let"],
              "sorting_s": phases["sorting"]},
        meta={"max_frontier": max_frontier},
    )


def test_step_counts_golden():
    """CI gate: interaction counts match the committed golden fixture
    (no wall-clock assertions -- counts only)."""
    golden = json.loads(GOLDEN.read_text())
    assert golden["ranks"] == N_RANKS
    _, _, counts, _ = _run(golden["n"], golden["steps"])
    assert counts == (golden["n_pp"], golden["n_pc"])
