"""Pluggable compute backends: registry, equivalence and skip paths.

The invariants this suite pins down:

- the registry resolves names, reports availability without importing
  heavy runtimes, and fails with actionable errors;
- ``backend="numpy"`` (the default) is byte-for-byte the pre-registry
  behaviour: identical forces, counts and span attributes;
- every *available* registered backend -- plus the numba backend's
  pure-Python fallback, which runs everywhere -- agrees with the
  numpy-float64 oracle inside the differential theta^2 envelope on
  random problems, with bitwise-identical interaction counts (counts
  are a walk property no backend may change);
- backends whose package is absent skip, never fail, and are never
  imported at module load.

The real numba runtime is exercised by the same tests when
installed (CI's ``backend-matrix`` job); this container validates the
fused pass algorithm through the fallback.
"""

import json
import sys
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import SimulationConfig
from repro.core.simulation import Simulation
from repro.gravity import tree_forces
from repro.gravity.backends import (
    BackendUnavailable,
    ComputeBackend,
    NumbaBackend,
    NumpyBackend,
    available_backends,
    get_backend,
    register_backend,
    registered_backends,
    unregister_backend,
)
from repro.gravity.backends.numba_backend import JitWorkspace
from repro.gravity.kernels import (
    pc_interactions,
    point_forces_on_targets,
    pp_interactions,
)
from repro.gravity.treewalk import (
    KernelWorkspace,
    evaluate_pc_pairs,
    evaluate_pp_pairs,
)
from repro.ics import plummer_model
from repro.obs import Tracer, VirtualClock, chrome_trace_json
from repro.octree import build_octree, compute_moments, make_groups
from repro.testing.differential import max_rel_difference

THETA = 0.5
ENVELOPE = 0.3 * THETA ** 2

#: The fallback runs the fused pass source everywhere; real optional
#: backends join automatically where their runtime is installed.
FALLBACK = NumbaBackend(python_fallback=True)


def _tree_result(n, seed, backend, quadrupole=True, eps=0.02,
                 precision="float64"):
    ps = plummer_model(n, seed=seed)
    tree = build_octree(ps.pos, nleaf=8)
    compute_moments(tree, ps.pos, ps.mass)
    make_groups(tree, 16)
    return tree_forces(tree, ps.pos, ps.mass, theta=THETA, eps=eps,
                       quadrupole=quadrupole, backend=backend,
                       precision=precision)


def _spans(tr, name):
    doc = json.loads(chrome_trace_json(tr))
    return [e for e in doc["traceEvents"] if e.get("name") == name]


def _rel(a, b):
    """``max_rel_difference`` for either (n, 3) or 1-D (phi) arrays."""
    a, b = np.atleast_2d(np.asarray(a).T).T, np.atleast_2d(np.asarray(b).T).T
    return max_rel_difference(a, b)


def _nondefault_backends():
    """Every backend the host can actually run, plus the fallback."""
    extras = [get_backend(name) for name in available_backends()
              if name != "numpy"]
    return [FALLBACK, *extras]


# -- registry ---------------------------------------------------------------

def test_builtin_backends_registered():
    assert registered_backends() == ("numpy", "numba")
    assert "numpy" in available_backends()


def test_get_backend_passthrough_and_errors():
    be = get_backend("numpy")
    assert get_backend(be) is be
    with pytest.raises(ValueError, match="unknown compute backend"):
        get_backend("does-not-exist")


def test_unavailable_backend_raises_with_reason():
    if "numba" in available_backends():
        pytest.skip("numba is installed here")
    with pytest.raises(BackendUnavailable, match="numba"):
        get_backend("numba")


def test_register_and_unregister_custom_backend():
    custom = NumpyBackend(name="custom-ref")
    register_backend(custom)
    try:
        assert "custom-ref" in registered_backends()
        assert get_backend("custom-ref") is custom
    finally:
        unregister_backend("custom-ref")
    assert "custom-ref" not in registered_backends()
    with pytest.raises(ValueError):
        register_backend(ComputeBackend())  # name "?" is not a valid key


def test_no_heavy_import_at_module_load():
    # The registry (and this whole suite's imports) must not pull in
    # numba; availability probing is find_spec-only.
    if "numba" not in available_backends():
        assert "numba" not in sys.modules


def test_config_validates_backend():
    assert SimulationConfig().backend == "numpy"
    cfg = SimulationConfig(backend="numba")   # registered: config is valid
    assert cfg.backend == "numba"             # (availability checked later)
    with pytest.raises(ValueError, match="unknown backend"):
        SimulationConfig(backend="fortran")


def test_driver_fails_fast_when_backend_unavailable():
    if "numba" in available_backends():
        pytest.skip("numba is installed here")
    ps = plummer_model(32, seed=0)
    with pytest.raises(BackendUnavailable):
        Simulation(ps, SimulationConfig(backend="numba"))


# -- default unchanged ------------------------------------------------------

def test_default_backend_bitwise_unchanged():
    ref = _tree_result(256, 1, backend="numpy")
    default = _tree_result(256, 1, backend="numpy")
    assert ref.acc.tobytes() == default.acc.tobytes()
    assert ref.phi.tobytes() == default.phi.tobytes()


def test_default_serial_spans_carry_no_backend_attr():
    ps = plummer_model(128, seed=2)
    tr = Tracer(clock=VirtualClock())
    sim = Simulation(ps, SimulationConfig(theta=THETA, softening=0.02,
                                          dt=0.01), trace=tr)
    sim.compute_forces()
    spans = _spans(tr, "gravity_local")
    assert spans and all("backend" not in s.get("args", {}) for s in spans)


# -- oracle agreement (hypothesis over random problems) ---------------------

@settings(max_examples=10, deadline=None)
@given(seed=st.integers(0, 2 ** 16), n=st.integers(2, 96),
       quadrupole=st.booleans())
def test_backends_agree_with_numpy_float64(seed, n, quadrupole):
    ref = _tree_result(n, seed, backend="numpy", quadrupole=quadrupole)
    for backend in _nondefault_backends():
        res = _tree_result(n, seed, backend=backend, quadrupole=quadrupole)
        # Counts are a walk property: bitwise, every backend.
        assert (res.counts.n_pp, res.counts.n_pc) \
            == (ref.counts.n_pp, ref.counts.n_pc)
        assert _rel(res.acc, ref.acc) < ENVELOPE
        assert _rel(res.phi, ref.phi) < ENVELOPE


def test_float32_variant_bounded_by_envelope():
    ref = _tree_result(256, 3, backend="numpy")
    for backend in _nondefault_backends():
        res = _tree_result(256, 3, backend=backend, precision="float32")
        assert (res.counts.n_pp, res.counts.n_pc) \
            == (ref.counts.n_pp, ref.counts.n_pc)
        assert _rel(res.acc, ref.acc) < ENVELOPE


def test_single_particle_and_eps_zero_edges():
    # One particle: every pair list is empty or pure self-pairs.
    for backend in ("numpy", *[b.name for b in _nondefault_backends()
                               if b.name in available_backends()]):
        res = _tree_result(2, 5, backend=backend, eps=0.0)
        assert np.isfinite(res.acc).all() and np.isfinite(res.phi).all()
    res = _tree_result(2, 5, backend=FALLBACK, eps=0.0)
    ref = _tree_result(2, 5, backend="numpy", eps=0.0)
    np.testing.assert_allclose(res.acc, ref.acc, rtol=1e-12, atol=1e-13)


# -- pair-batch kernels (empty / single-pair edges included) ----------------

@settings(max_examples=10, deadline=None)
@given(seed=st.integers(0, 2 ** 16), n=st.sampled_from([0, 1, 7, 128]),
       monopole=st.booleans())
def test_pair_batch_kernels_match_reference(seed, n, monopole):
    rng = np.random.default_rng(seed)
    dx, dy, dz = (rng.standard_normal(n) + 0.1 for _ in range(3))
    m = rng.uniform(0.1, 2.0, n)
    quad = None if monopole else rng.standard_normal((n, 6)) * 0.01
    ref = pc_interactions(dx, dy, dz, m, quad, 1e-4)
    scale = max(float(np.abs(np.concatenate(ref)).max()) if n else 0.0, 1e-30)
    for backend in _nondefault_backends():
        got = backend.pc_kernel(dx, dy, dz, m, quad, 1e-4)
        for g, r in zip(got, ref):
            np.testing.assert_allclose(g, r, rtol=1e-10, atol=1e-10 * scale)
    pref = pp_interactions(dx, dy, dz, m, 1e-4)
    for backend in _nondefault_backends():
        got = backend.pp_kernel(dx, dy, dz, m, 1e-4)
        for g, r in zip(got, pref):
            np.testing.assert_allclose(g, r, rtol=1e-10, atol=1e-10 * scale)


def test_empty_pair_lists_are_noops():
    empty = np.empty(0, dtype=np.int64)
    acc = np.zeros((4, 3))
    phi = np.zeros(4)
    ps = plummer_model(4, seed=9)
    tree = build_octree(ps.pos, nleaf=8)
    compute_moments(tree, ps.pos, ps.mass)
    make_groups(tree, 16)
    from repro.gravity.flops import InteractionCounts
    for backend in ("numpy", FALLBACK):
        counts = InteractionCounts()
        evaluate_pc_pairs(acc, phi, ps.pos, tree, empty, empty,
                          tree.group_first, tree.group_count, 1e-4, True,
                          counts, backend=backend)
        evaluate_pp_pairs(acc, phi, ps.pos, ps.pos, ps.mass, empty, empty,
                          tree.group_first, tree.group_count,
                          tree.body_first, tree.body_count, 1e-4,
                          counts, exclude_self=True, backend=backend)
        assert counts.n_pp == counts.n_pc == 0
    assert not acc.any() and not phi.any()


# -- dense helper -----------------------------------------------------------

def test_point_forces_routes_through_registry():
    ps = plummer_model(96, seed=4)
    t, s, m = ps.pos[:32], ps.pos[32:], ps.mass[32:]
    ref = point_forces_on_targets(t, s, m, 1e-4)
    via = point_forces_on_targets(t, s, m, 1e-4, backend="numpy")
    assert ref[0].tobytes() == via[0].tobytes()
    for backend in _nondefault_backends():
        acc, phi = backend.point_forces(t, s, m, 1e-4)
        np.testing.assert_allclose(acc, ref[0], rtol=1e-12, atol=1e-13)
        np.testing.assert_allclose(phi, ref[1], rtol=1e-12, atol=1e-13)


def test_point_forces_eps_zero_warning_clean():
    # Coincident target/source at eps = 0: inf is fine, warnings are not.
    pos = np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0]])
    mass = np.ones(2)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        acc, phi = point_forces_on_targets(pos, pos, mass, 0.0)
    assert np.isinf(phi).all()


# -- workspaces and warm-up -------------------------------------------------

def test_jit_workspace_contract():
    ws = JitWorkspace(1024, "float32")
    assert ws.dtype == np.float32 and ws.nbytes == 0
    assert ws.ensure(4096) is ws and ws.chunk == 4096
    with pytest.raises(ValueError):
        JitWorkspace(8, "float16")
    assert isinstance(get_backend("numpy").make_workspace(8).nbytes, int)


@pytest.mark.parametrize("precision", ["float64", "float32"])
def test_kernel_workspace_grows_to_the_largest_tile(precision):
    # ``chunk`` bounds a tile's width; it is not an allocation, so even
    # a chunk far larger than memory reserves nothing up front.
    ws = KernelWorkspace(1 << 40, precision)
    assert ws.nbytes == 0
    per_tile = (KernelWorkspace.N_TILES + 1) * np.dtype(precision).itemsize
    m, k = 64, 300
    tiles = ws.tiles(m, k)
    assert [t.shape for t in tiles] == [(m, k)] * KernelWorkspace.N_TILES
    assert ws.nbytes == m * k * per_tile and len(ws.trq) >= k
    # A smaller tile reuses the arena: it neither grows nor shrinks.
    grown = ws.nbytes
    ws.tiles(8, 10, 5)
    assert ws.nbytes == grown


def test_force_pass_grows_workspace_only_to_its_tiles():
    # The drivers' persistent workspace: a chunk wider than every tile
    # is one unsplit pass, and only the first pass grows the arena.
    ps = plummer_model(200, seed=4)
    tree = build_octree(ps.pos, nleaf=8)
    compute_moments(tree, ps.pos, ps.mass)
    make_groups(tree, 16)
    ws = KernelWorkspace(1 << 40)
    kw = dict(theta=THETA, eps=0.02, chunk=1 << 40, workspace=ws)
    first = tree_forces(tree, ps.pos, ps.mass, **kw)
    grown = ws.nbytes
    assert 0 < grown <= 13 * 8 * ps.n ** 2
    second = tree_forces(tree, ps.pos, ps.mass, **kw)
    assert ws.nbytes == grown
    assert first.acc.tobytes() == second.acc.tobytes()


def test_fallback_warmup_idempotent():
    FALLBACK.warmup("float64")
    FALLBACK.warmup("float32")


# -- driver + telemetry threading (via a registered mirror backend) ---------

@pytest.fixture
def mirror_backend():
    """The numpy reference registered under a non-default name.

    Exercises every driver/telemetry code path a non-default backend
    takes (resolution, workspace creation, span stamping, perf rows)
    with bitwise-reference numerics and no optional dependency.
    """
    backend = NumpyBackend(name="mirror")
    register_backend(backend)
    yield backend
    unregister_backend("mirror")


def test_serial_driver_threads_backend(mirror_backend):
    ps = plummer_model(128, seed=6)
    kw = dict(theta=THETA, softening=0.02, dt=0.01)
    tr = Tracer(clock=VirtualClock())
    sim = Simulation(ps, SimulationConfig(backend="mirror", **kw), trace=tr)
    acc, phi = sim.compute_forces()
    ref = Simulation(ps, SimulationConfig(**kw)).compute_forces()
    assert acc.tobytes() == ref[0].tobytes()
    assert phi.tobytes() == ref[1].tobytes()
    spans = _spans(tr, "gravity_local")
    assert spans and all(s["args"].get("backend") == "mirror" for s in spans)


@pytest.mark.parametrize("transport", ["threads", "process"])
def test_parallel_driver_threads_backend(mirror_backend, transport):
    from tests.test_forest_walk import _cfg, _forces
    particles = plummer_model(256, seed=8)
    ref = _forces(particles, _cfg(transport=transport), 2)
    got = _forces(particles, _cfg(transport=transport, backend="mirror"), 2)
    assert got[2] == ref[2]                      # counts byte-identical
    assert got[0].tobytes() == ref[0].tobytes()  # bitwise reference numerics
    assert got[1].tobytes() == ref[1].tobytes()


def test_perf_report_gains_backend_rows(mirror_backend):
    from repro.obs.perf import perf_from_trace, perf_lines
    ps = plummer_model(128, seed=10)
    kw = dict(theta=THETA, softening=0.02, dt=0.01)
    tr = Tracer(clock=VirtualClock())
    sim = Simulation(ps, SimulationConfig(backend="mirror", **kw), trace=tr)
    sim.step()
    perf = perf_from_trace(json.loads(chrome_trace_json(tr)))
    assert list(perf["backends"]) == ["mirror"]
    row = perf["backends"]["mirror"]
    assert row["n_pp"] > 0 and row["flops"] > 0
    assert any("backend mirror" in line for line in perf_lines(perf))
    # Default runs attribute everything to numpy (absence == default).
    tr2 = Tracer(clock=VirtualClock())
    Simulation(ps, SimulationConfig(**kw), trace=tr2).step()
    perf2 = perf_from_trace(json.loads(chrome_trace_json(tr2)))
    assert list(perf2["backends"]) == ["numpy"]
    # The perf summary stays JSON-serialisable (report embedding).
    json.dumps(perf)


# -- optional runtimes: skip-not-fail locally, exercised in CI --------------

def _require(name):
    try:
        return get_backend(name)
    except BackendUnavailable as exc:
        pytest.skip(str(exc))


def test_optional_backend_matches_oracle_when_installed():
    backend = _require("numba")
    backend.warmup()
    ref = _tree_result(512, 21, backend="numpy")
    res = _tree_result(512, 21, backend=backend)
    assert (res.counts.n_pp, res.counts.n_pc) \
        == (ref.counts.n_pp, ref.counts.n_pc)
    assert _rel(res.acc, ref.acc) < ENVELOPE
    assert _rel(res.phi, ref.phi) < ENVELOPE


@pytest.mark.parametrize("n_ranks", [1, 2, 4, 8])
@pytest.mark.parametrize("transport", ["threads", "process"])
def test_numba_cross_transport_matrix(n_ranks, transport):
    """The PR-5 gate, rerun under the JIT backend: counts bitwise at
    1/2/4/8 ranks on both transports, forces inside the envelope."""
    _require("numba")
    from tests.test_forest_walk import _cfg, _forces
    particles = plummer_model(512, seed=22)
    ref = _forces(particles, _cfg(transport=transport), n_ranks)
    got = _forces(particles, _cfg(transport=transport, backend="numba"),
                  n_ranks)
    assert got[2] == ref[2]
    assert _rel(got[0], ref[0]) < ENVELOPE
    assert _rel(got[1], ref[1]) < ENVELOPE
