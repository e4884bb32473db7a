"""The calls the benchmark gate (`benchmarks/ledger/`) makes into `src/`.

The ledger may not be edited by a change it judges, so a `src/` change
that breaks one of these calls would only show up as a refused PR.  This
keeps them in tier-1: a smoke run of the gated serial workload and of the
front-end one (sfc/octree/LET, no force kernels), and the signatures
`benchmarks/ledger/replay.py` relies on.
"""

import inspect
import json
import subprocess
import sys
from pathlib import Path

import numpy as np

from repro.gravity import DEFAULT_CHUNK, walk_interaction_lists
from repro.gravity.kernels import pc_interactions_ws, pp_interactions_ws
from repro.gravity.treewalk import (evaluate_pc_pairs, evaluate_pp_pairs,
                                    group_aabbs)

ROOT = Path(__file__).resolve().parents[1]


def _smoke_run(workload):
    proc = subprocess.run(
        [sys.executable, str(ROOT / "benchmarks" / "ledger" / "run.py"),
         "--workload", workload, "--seed", "1", "--smoke", "--trace", "0"],
        capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    doc = json.loads(proc.stdout.strip().splitlines()[-1])
    assert doc["correct"] is True and doc["failed"] == 0
    assert set(doc["metrics"]) == {"step_s", "cpu_step_s", "setup_s",
                                   "peak_rss_mb"}


def test_ledger_smoke_run_is_correct():
    _smoke_run("serial_mw_4k")


def test_ledger_front_end_smoke_run_is_correct():
    """No force kernels: keys, sort, octree, moments, groups, boundary, LET."""
    _smoke_run("treepipe_mw_250k")


def test_replay_positional_calls_still_bind():
    """Arity and keyword names of replay.py's calls, argument for argument."""
    a = object()
    calls = [
        (group_aabbs, (a, a), {}),
        (walk_interaction_lists, (a, a, a), {}),
        (evaluate_pc_pairs, (a,) * 11, {}),
        (evaluate_pp_pairs, (a,) * 13, {"exclude_self": True}),
        (pp_interactions_ws, (a,) * 7, {}),
        (pc_interactions_ws, (a,) * 12, {}),
    ]
    for fn, args, kwargs in calls:
        inspect.signature(fn).bind(*args, **kwargs)
    assert isinstance(DEFAULT_CHUNK, int) and DEFAULT_CHUNK > 0


def test_replay_kernel_calls_run_on_flat_chunk_operands():
    """replay.kernels(): chunk-length 1-D operands, six scratch rows, no
    extra scratch; the kernels leave mass and quadrupoles untouched."""
    rng = np.random.default_rng(0)
    pristine = rng.uniform(0.5, 1.5, size=(10, DEFAULT_CHUNK))
    bufs = np.empty((16, DEFAULT_CHUNK))
    bufs[:10] = pristine
    out = pp_interactions_ws(bufs[0], bufs[1], bufs[2], bufs[3], 1e-4,
                             bufs[10], bufs[11])
    assert all(np.isfinite(o).all() for o in out)
    assert np.array_equal(bufs[3], pristine[3])
    bufs[:10] = pristine
    out = pc_interactions_ws(bufs[0], bufs[1], bufs[2], bufs[3],
                             tuple(bufs[4:10]), 1e-4, *bufs[10:16])
    assert all(np.isfinite(o).all() for o in out)
    assert np.array_equal(bufs[3:10], pristine[3:10])
