"""Compute-backend comparison on the tree-walk hot path.

Runs the identical group-centric tree force evaluation (fixed Plummer
ICs, fixed tree) through every *available* registered compute backend
(``repro.gravity.backends``) and records per-backend wall clock,
achieved Gflop/s and the speedup over the ``numpy`` reference.

Interaction counts are a walk property no backend may change, so
``n_pp``/``n_pc``/``counts_match`` gate hard in the history verdict;
wall-clock rows are advisory (the CI container is 1-CPU).  On hosts
without numba the bench degrades to a numpy-only baseline row --
the ``backend-matrix`` CI job, which pip-installs numba, is where the
``numba_speedup_vs_numpy`` trajectory is recorded.

Environment knobs: ``BACKEND_BENCH_N`` (particles, default 8000) and
``BACKEND_BENCH_REPEATS`` (timed evaluations per backend, default 3).
"""

import os
import time

from conftest import append_history, write_result
from repro.gravity import (
    FLOPS_PER_PC,
    FLOPS_PER_PP,
    available_backends,
    get_backend,
    tree_forces,
)
from repro.gravity.backends import NumbaBackend
from repro.ics import plummer_model
from repro.obs.bench import BenchResult, register_bench
from repro.octree import build_octree, compute_moments, make_groups
from repro.testing.differential import max_rel_difference

BENCH_N = int(os.environ.get("BACKEND_BENCH_N", "8000"))
BENCH_REPEATS = int(os.environ.get("BACKEND_BENCH_REPEATS", "3"))
THETA = 0.5
EPS = 0.02
SEED = 7


def _problem(n, seed=SEED):
    ps = plummer_model(n, seed=seed)
    tree = build_octree(ps.pos, nleaf=16)
    compute_moments(tree, ps.pos, ps.mass)
    make_groups(tree, 64)
    return tree, ps


def _time_backend(backend, tree, ps, repeats):
    """(best wall seconds, TreeWalkResult) for one backend.

    ``warmup()`` runs before any clock starts (JIT compilation must
    never pollute a timed region), then one untimed evaluation primes
    caches, then ``repeats`` timed evaluations; best-of is reported.
    """
    be = get_backend(backend)
    be.warmup()
    kw = dict(theta=THETA, eps=EPS, quadrupole=True, backend=be)
    res = tree_forces(tree, ps.pos, ps.mass, **kw)
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        res = tree_forces(tree, ps.pos, ps.mass, **kw)
        best = min(best, time.perf_counter() - t0)
    return best, res


@register_bench("kernel_backends",
                description="force-kernel compute backends: identical "
                            "interaction counts (gate), per-backend "
                            "Gflop/s and speedup vs numpy (advisory)")
def run_bench(n=BENCH_N, repeats=BENCH_REPEATS) -> BenchResult:
    tree, ps = _problem(n)
    wall: dict[str, float] = {}
    results = {}
    for name in available_backends():
        seconds, res = _time_backend(name, tree, ps, repeats)
        results[name] = res
        flops = res.counts.n_pp * FLOPS_PER_PP + res.counts.n_pc * FLOPS_PER_PC
        wall[f"wall_{name}_s"] = seconds
        wall[f"gflops_{name}"] = flops / seconds / 1e9
    for name in results:
        if name != "numpy":
            wall[f"{name}_speedup_vs_numpy"] = \
                wall["wall_numpy_s"] / wall[f"wall_{name}_s"]
    ref = results["numpy"]
    return BenchResult(
        bench="kernel_backends",
        config={"n": n, "repeats": repeats, "theta": THETA, "eps": EPS,
                "seed": SEED},
        counts={"n_pp": ref.counts.n_pp, "n_pc": ref.counts.n_pc,
                "counts_match": int(all(
                    (r.counts.n_pp, r.counts.n_pc)
                    == (ref.counts.n_pp, ref.counts.n_pc)
                    for r in results.values()))},
        wall=wall,
        meta={"backends": sorted(results), "cpu_count": os.cpu_count()},
    )


def test_backend_bench_equivalence(results_dir):
    """Every backend the bench would time agrees with the oracle.

    Small problem (the bench itself runs bigger): counts bitwise, forces
    inside the differential theta^2 envelope.  The numba pass source is
    always exercised via the python fallback, so a numba-free host still
    validates the fused algorithm before CI times it.
    """
    tree, ps = _problem(1500, seed=SEED)
    envelope = 0.3 * THETA ** 2
    kw = dict(theta=THETA, eps=EPS, quadrupole=True)
    ref = tree_forces(tree, ps.pos, ps.mass, backend="numpy", **kw)
    checked = []
    extras = [get_backend(n) for n in available_backends() if n != "numpy"]
    for be in [NumbaBackend(python_fallback=True), *extras]:
        res = tree_forces(tree, ps.pos, ps.mass, backend=be, **kw)
        assert (res.counts.n_pp, res.counts.n_pc) \
            == (ref.counts.n_pp, ref.counts.n_pc), be.name
        rel = max_rel_difference(res.acc, ref.acc)
        assert rel < envelope, (be.name, rel)
        checked.append((be.name, rel))

    result = run_bench(n=1500, repeats=1)
    append_history(result)
    lines = [
        f"Compute-backend bench (N=1500, theta={THETA}, "
        f"cpu_count={os.cpu_count()})",
        f"counts: n_pp={result.counts['n_pp']:.0f} "
        f"n_pc={result.counts['n_pc']:.0f} "
        f"match={result.counts['counts_match']:.0f}",
    ]
    for name, rel in checked:
        lines.append(f"  {name:16s} max rel diff vs numpy-f64: {rel:.3e}")
    for key in sorted(result.wall):
        lines.append(f"  {key:28s} {result.wall[key]:.6g}")
    write_result("backends", lines)
    assert result.counts["counts_match"] == 1
