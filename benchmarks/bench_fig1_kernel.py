"""Fig. 1 -- force-kernel performance.

Regenerates the five bars of Fig. 1 from the GPU kernel model and, as
the honest counterpart, measures this repository's own (NumPy) kernels
in Gflops using the paper's operation-count conventions.  The paper's
quantitative claims are asserted: the tuned Kepler tree kernel is ~2x
the original and ~4x the Fermi kernel, and the tree kernel on K20X is
competitive with the CUDA-SDK direct kernel.
"""

import time

import numpy as np
import pytest

from conftest import write_result
from repro.gravity import (
    FLOPS_PER_PC,
    FLOPS_PER_PP,
    available_backends,
    get_backend,
    pc_interactions,
    pp_interactions,
)
from repro.perfmodel import fig1_bars

N_PAIRS = 1 << 20


@pytest.fixture(scope="module")
def pair_data():
    rng = np.random.default_rng(100)
    d = rng.normal(size=(N_PAIRS, 3)) * 5.0
    m = rng.uniform(0.1, 1.0, N_PAIRS)
    quad = rng.normal(size=(N_PAIRS, 6)) * 0.1
    return d, m, quad


def test_fig1_model_bars(benchmark, results_dir):
    bars = benchmark(fig1_bars)
    lines = ["Fig. 1: force kernel performance (modelled, Gflops)",
             f"{'GPU':8s} {'kernel':14s} {'Gflops':>8s} {'frac peak':>10s}"]
    for gpu, kernel, gflops, frac in bars:
        lines.append(f"{gpu:8s} {kernel:14s} {gflops:8.0f} {frac:10.2f}")
    write_result("fig1_kernel_model", lines)
    d = {(g, k): v for g, k, v, _ in bars}
    assert d[("K20X", "tree/tuned")] / d[("K20X", "tree/original")] > 1.9
    assert d[("K20X", "tree/tuned")] / d[("C2075", "tree/original")] > 3.5


def bench_pp(d, m):
    return pp_interactions(d[:, 0], d[:, 1], d[:, 2], m, 0.01)


def bench_pc(d, m, quad):
    return pc_interactions(d[:, 0], d[:, 1], d[:, 2], m, quad, 0.01)


def test_measured_pp_kernel_gflops(benchmark, pair_data, results_dir):
    d, m, _ = pair_data
    benchmark(bench_pp, d, m)
    gflops = N_PAIRS * FLOPS_PER_PP / benchmark.stats["mean"] / 1e9
    write_result("fig1_measured_pp", [
        "Host (NumPy) p-p kernel, paper convention (23 flops/interaction)",
        f"pairs/call: {N_PAIRS}",
        f"sustained: {gflops:.3f} Gflops"])
    assert gflops > 0.01


def test_measured_pc_kernel_gflops(benchmark, pair_data, results_dir):
    d, m, quad = pair_data
    benchmark(bench_pc, d, m, quad)
    gflops = N_PAIRS * FLOPS_PER_PC / benchmark.stats["mean"] / 1e9
    write_result("fig1_measured_pc", [
        "Host (NumPy) p-c kernel, paper convention (65 flops/interaction)",
        f"pairs/call: {N_PAIRS}",
        f"sustained: {gflops:.3f} Gflops"])
    assert gflops > 0.01


def test_measured_backend_kernel_gflops(pair_data, results_dir):
    """Per-backend Gflop/s on the same pair batch (select: -k backend).

    Times every *available* compute backend's raw pair-batch kernels
    (``backend.pp_kernel`` / ``backend.pc_kernel``) with manual best-of
    timing rather than the benchmark fixture, so the row count adapts to
    whatever backends the host carries.  The compiled backend's own
    kernels take whole group lists, not pair batches: it inherits
    numpy's batch kernels, so its row repeats numpy's.  Kernel output
    must match the reference batch kernels, so the table can never
    drift from the physics."""
    d, m, quad = pair_data
    ref_pp = pp_interactions(d[:, 0], d[:, 1], d[:, 2], m, 0.01)
    ref_pc = pc_interactions(d[:, 0], d[:, 1], d[:, 2], m, quad, 0.01)
    lines = ["Host pair-batch kernels by compute backend "
             "(paper flop conventions)",
             f"pairs/call: {N_PAIRS}",
             f"{'backend':12s} {'pp Gflops':>10s} {'pc Gflops':>10s}"]
    for name in available_backends():
        backend = get_backend(name)
        backend.warmup()
        rates = []
        for kernel, ref, flops in (
                (lambda: backend.pp_kernel(d[:, 0], d[:, 1], d[:, 2],
                                           m, 0.01),
                 ref_pp, FLOPS_PER_PP),
                (lambda: backend.pc_kernel(d[:, 0], d[:, 1], d[:, 2],
                                           m, quad, 0.01),
                 ref_pc, FLOPS_PER_PC)):
            got = kernel()
            for g, r in zip(got, ref):
                np.testing.assert_allclose(g, r, rtol=1e-12, atol=1e-12)
            best = float("inf")
            for _ in range(3):
                t0 = time.perf_counter()
                kernel()
                best = min(best, time.perf_counter() - t0)
            rates.append(N_PAIRS * flops / best / 1e9)
        lines.append(f"{name:12s} {rates[0]:10.3f} {rates[1]:10.3f}")
        assert min(rates) > 0.01
    write_result("fig1_measured_backends", lines)


def test_pc_kernel_costs_more_per_interaction(benchmark, pair_data):
    """The 65-flop p-c kernel must cost more wall-clock per interaction
    than the 23-flop p-p kernel.  (On the K20X the p-c kernel sustains a
    *higher* flop rate -- fma-rich vs rsqrt-bound -- which is encoded in
    the model's split R_pp/R_pc; NumPy on a CPU is memory-bound instead,
    so here we assert only the cost ordering, not the rate ordering.)"""
    import time
    d, m, quad = pair_data

    def both():
        t_pp = min(_timed(bench_pp, d, m) for _ in range(3))
        t_pc = min(_timed(bench_pc, d, m, quad) for _ in range(3))
        return t_pp, t_pc

    def _timed(fn, *args):
        t0 = time.perf_counter()
        fn(*args)
        return time.perf_counter() - t0

    t_pp, t_pc = benchmark.pedantic(both, rounds=1, iterations=1)
    assert t_pc > t_pp
