"""The compiled backend: C group-list kernels against the oracles.

Every force check is against the flat-pair oracle
(``tests/flat_pair_oracle.py``) at ``rtol=1e-12`` in float64 -- the C
kernels sum each run in list order, numpy sums pairwise, so they agree
to round-off, not bitwise -- with interaction counts equal exactly.
Batched and per-source evaluation agree bitwise *within* the backend.
The build cache must survive an unwritable directory, a missing
compiler, a missing home and two processes building at once, and never
load a library another user owns or can write.  Everything but the
packaging and cache-directory checks skips on a host without ``cc``.
"""

import ctypes
import importlib.resources
import os
import shutil
import subprocess
import sys
import tempfile
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np
import pytest

from repro.gravity import (ForcePass, SourceForest, direct_forces,
                           tree_forces)
from repro.gravity.backends import compiled, get_backend
from repro.gravity.flops import InteractionCounts
from repro.gravity.treewalk import KernelWorkspace, SourceView
from repro.octree import (build_octree, compute_moments,
                          compute_opening_radii, make_groups)
from repro.parallel import build_let_for_box
from repro.testing import max_rel_difference

from .flat_pair_oracle import flat_tree_forces

THETA = 0.5
EPS = 0.02
ENVELOPE = 0.3 * THETA ** 2

needs_cc = pytest.mark.skipif(shutil.which("cc") is None,
                              reason="no C compiler on this host")


def _cloud(n, seed, scale=1.0, centre=(0.0, 0.0, 0.0)):
    rng = np.random.default_rng(seed)
    return (rng.normal(size=(n, 3)) * scale + np.asarray(centre),
            rng.uniform(0.5, 1.0, n))


def _tree(pos, mass, ncrit=64, nleaf=16):
    tree = build_octree(pos, nleaf=nleaf)
    compute_moments(tree, pos, mass)
    make_groups(tree, ncrit)
    return tree


def _against_oracle(pos, mass, eps=EPS, quadrupole=True, **tree_kw):
    tree = _tree(pos, mass, **tree_kw)
    kw = dict(theta=THETA, eps=eps, quadrupole=quadrupole)
    got = tree_forces(tree, pos, mass, backend="compiled", **kw)
    ref = flat_tree_forces(tree, pos, mass, **kw)
    assert got.counts == ref.counts
    np.testing.assert_allclose(got.acc, ref.acc, rtol=1e-12, atol=1e-13)
    np.testing.assert_allclose(got.phi, ref.phi, rtol=1e-12, atol=1e-13)
    return tree, got


def test_kernel_source_ships_with_the_package():
    # An installed (non-editable) package builds from this resource.
    src = importlib.resources.files("repro.gravity.backends") \
        .joinpath(compiled.SOURCE)
    text = src.read_text()
    assert "int eval_pc_##SFX(" in text and "int eval_pp_##SFX(" in text
    assert "KERNELS(f64, double, sqrt)" in text


@needs_cc
@pytest.mark.parametrize("quadrupole", [True, False])
def test_matches_flat_oracle(quadrupole):
    pos, mass = _cloud(1500, 1)
    _, got = _against_oracle(pos, mass, quadrupole=quadrupole)
    assert got.counts.n_pc > 0 and got.counts.n_pp > 0


@needs_cc
def test_eps_zero_excludes_self_pairs():
    pos, mass = _cloud(500, 2)
    _, got = _against_oracle(pos, mass, eps=0.0)
    assert np.isfinite(got.acc).all() and np.isfinite(got.phi).all()


@needs_cc
@pytest.mark.parametrize("eps", [EPS, 0.0])
def test_one_particle(eps):
    pos, mass = _cloud(1, 3)
    _, got = _against_oracle(pos, mass, eps=eps)
    assert got.counts.n_pp == 1
    assert not got.acc.any() and not got.phi.any()


@needs_cc
def test_stuck_group_larger_than_ncrit():
    pos, mass = _cloud(200, 4)
    pos[:90] = pos[0]
    tree, got = _against_oracle(pos, mass, ncrit=64)
    assert tree.group_count.max() == 90
    acc_d, _ = direct_forces(pos, mass, eps=EPS)
    assert max_rel_difference(got.acc, acc_d) < ENVELOPE


@needs_cc
def test_empty_lists_touch_nothing():
    pos, mass = _cloud(40, 5)
    tree = _tree(pos, mass)
    be = get_backend("compiled")
    spos = pos[tree.order]
    tview = tuple(np.ascontiguousarray(spos[:, k]) for k in range(3))
    sv = SourceView.build(tree, spos, mass[tree.order])
    acc, phi = np.zeros((40, 3)), np.zeros(40)
    counts = InteractionCounts()
    empty = np.empty(0, dtype=np.int64)
    ws = be.make_workspace(1024)
    be.evaluate_pc(acc[:, 0], acc[:, 1], acc[:, 2], phi, tview, sv,
                   empty, empty, tree.group_first, tree.group_count,
                   EPS ** 2, True, counts, 1024, ws)
    be.evaluate_pp(acc[:, 0], acc[:, 1], acc[:, 2], phi, tview, sv,
                   empty, empty, tree.group_first, tree.group_count,
                   EPS ** 2, counts, True, 1024, ws)
    assert counts.n_pp == counts.n_pc == 0
    assert not acc.any() and not phi.any()


@needs_cc
def test_float32_inside_the_envelope():
    pos, mass = _cloud(1500, 6)
    tree = _tree(pos, mass)
    kw = dict(theta=THETA, eps=EPS)
    f32 = tree_forces(tree, pos, mass, backend="compiled",
                      precision="float32", **kw)
    ref = tree_forces(tree, pos, mass, backend="numpy", **kw)
    assert f32.counts == ref.counts
    assert 0.0 < max_rel_difference(f32.acc, ref.acc) < ENVELOPE
    acc_d, _ = direct_forces(pos, mass, eps=EPS)
    assert max_rel_difference(f32.acc, acc_d) < ENVELOPE


@needs_cc
def test_counts_equal_numpy_bitwise():
    pos, mass = _cloud(2000, 7)
    tree = _tree(pos, mass, ncrit=32, nleaf=8)
    for quadrupole in (True, False):
        kw = dict(theta=THETA, eps=EPS, quadrupole=quadrupole)
        got = tree_forces(tree, pos, mass, backend="compiled", **kw)
        ref = tree_forces(tree, pos, mass, backend="numpy", **kw)
        assert (got.counts.n_pp, got.counts.n_pc, got.counts.quadrupole) \
            == (ref.counts.n_pp, ref.counts.n_pc, ref.counts.quadrupole)


@needs_cc
@pytest.mark.parametrize("precision", ["float64", "float32"])
def test_forest_of_lets_equals_one_by_one_bitwise(precision):
    """A forest's runs are cut at its sources' boundaries, so adding the
    forest adds bitwise what adding each LET in forest order does."""
    pos, mass = _cloud(500, 8)
    tree = _tree(pos, mass)
    box = pos.min(axis=0), pos.max(axis=0)
    lets = []
    for i, centre in enumerate([(5, 0, 0), (0, 7, 0), (-4, -4, 0),
                                (0, 0, 60)]):
        sp, sm = _cloud(300 + 100 * i, 9 + i, centre=centre)
        src = _tree(sp, sm)
        compute_opening_radii(src, THETA, "bonsai")
        lets.append(build_let_for_box(src, sp[src.order], sm[src.order],
                                      *box))
    forest = SourceForest.concatenate(lets, range(len(lets)))

    def force_pass():
        return ForcePass(tree, pos[tree.order], EPS ** 2,
                         workspace=KernelWorkspace(1024, precision),
                         backend="compiled")

    batch, n_batch = force_pass(), InteractionCounts()
    batch.add(forest, forest.part_pos, forest.part_mass, n_batch)
    alone, n_alone = force_pass(), InteractionCounts()
    for let in lets:
        alone.add(let, let.part_pos, let.part_mass, n_alone)
    assert n_batch == n_alone and n_batch.n_pp and n_batch.n_pc
    for a, b in zip(batch.finish(), alone.finish()):
        assert a.tobytes() == b.tobytes()


# -- the build cache ---------------------------------------------------------

@needs_cc
def test_unwritable_cache_dir_falls_back_to_the_next(tmp_path):
    blocker = tmp_path / "a-file"
    blocker.write_text("not a directory")
    good = tmp_path / "cache"
    path = compiled.build(shutil.which("cc"), [blocker / "repro", good])
    assert path.parent == good and path.is_file()
    assert not list(good.glob(".build-*"))      # no temporary left behind
    # A second build finds the cached library instead of compiling.
    assert compiled.build("/nonexistent/cc", [blocker / "repro", good]) \
        == path


def test_no_writable_cache_dir_names_the_cause(tmp_path):
    blocker = tmp_path / "a-file"
    blocker.write_text("not a directory")
    with pytest.raises(compiled.BackendUnavailable, match="a-file"):
        compiled.build("cc", [blocker / "repro"])


@needs_cc
def test_cache_others_can_write_is_never_loaded(tmp_path):
    cc = shutil.which("cc")
    shared, good = tmp_path / "shared", tmp_path / "good"
    planted = compiled.build(cc, [shared])
    # A directory others may write is skipped, library and all.
    shared.chmod(0o777)
    assert compiled.build(cc, [shared, good]).parent == good
    with pytest.raises(compiled.BackendUnavailable, match="not private"):
        compiled.build(cc, [shared])
    # A library others may write, in a private directory, is rebuilt
    # over rather than loaded.
    shared.chmod(0o700)
    planted.write_bytes(b"not a library")
    planted.chmod(0o666)
    assert compiled.build(cc, [shared]) == planted
    assert not planted.stat().st_mode & 0o077
    ctypes.CDLL(str(planted)).eval_pp_f64


@needs_cc
def test_cache_another_user_owns_is_never_loaded(tmp_path, monkeypatch):
    planted = compiled.build(shutil.which("cc"), [tmp_path / "theirs"])
    # Seen from another uid, the directory and its library are foreign.
    monkeypatch.setattr(os, "getuid", lambda: planted.stat().st_uid + 1)
    with pytest.raises(compiled.BackendUnavailable, match="not private"):
        compiled.build("/nonexistent/cc", [planted.parent])


def test_cache_dirs_end_in_a_per_user_temp_dir(monkeypatch):
    def no_home():
        raise RuntimeError("Could not determine home directory.")

    last = Path(tempfile.gettempdir()) / f"repro-{os.getuid()}"
    monkeypatch.setenv("XDG_CACHE_HOME", "/xdg")
    assert compiled.cache_dirs()[0] == Path("/xdg/repro")
    assert compiled.cache_dirs()[-1] == last
    # No HOME and no passwd entry: the home cache is skipped, not fatal.
    monkeypatch.delenv("XDG_CACHE_HOME")
    monkeypatch.setattr(Path, "home", staticmethod(no_home))
    assert compiled.cache_dirs() == [last]


@needs_cc
def test_no_home_still_builds_in_the_temp_dir(tmp_path, monkeypatch):
    def no_home():
        raise RuntimeError("Could not determine home directory.")

    monkeypatch.delenv("XDG_CACHE_HOME", raising=False)
    monkeypatch.setattr(Path, "home", staticmethod(no_home))
    monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
    assert compiled.CompiledBackend().available()
    assert list((tmp_path / f"repro-{os.getuid()}").glob("*.so"))


@needs_cc
def test_threads_racing_to_first_use_build_once(tmp_path, monkeypatch):
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path))
    calls = []
    run = subprocess.run
    monkeypatch.setattr(subprocess, "run",
                        lambda *a, **k: calls.append(a) or run(*a, **k))
    backend = compiled.CompiledBackend()
    with ThreadPoolExecutor(8) as pool:
        ready = list(pool.map(lambda _: backend.available(), range(16)))
    assert all(ready) and len(calls) == 1
    assert len(list((tmp_path / "repro").glob("*.so"))) == 1


@needs_cc
def test_mismatched_accumulators_are_refused():
    pos, mass = _cloud(100, 12)
    tree = _tree(pos, mass)
    be = get_backend("compiled")
    spos = pos[tree.order]
    tview = tuple(np.ascontiguousarray(spos[:, k]) for k in range(3))
    sv = SourceView.build(tree, spos, mass[tree.order])
    acc, phi = np.zeros((99, 3)), np.zeros(99)
    g = np.zeros(1, dtype=np.int64)
    with pytest.raises(ValueError, match="accumulators"):
        be.evaluate_pc(acc[:, 0], acc[:, 1], acc[:, 2], phi, tview, sv, g,
                       g, tree.group_first, tree.group_count, EPS ** 2,
                       True, InteractionCounts(), 1024, be.make_workspace(8))


@needs_cc
def test_two_processes_building_one_empty_cache_both_load(tmp_path):
    code = (
        "import ctypes, shutil, sys; from pathlib import Path; "
        "from repro.gravity.backends import compiled; "
        "p = compiled.build(shutil.which('cc'), [Path(sys.argv[1])]); "
        "ctypes.CDLL(str(p)).eval_pp_f64; print(p)")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
    procs = [subprocess.Popen([sys.executable, "-c", code, str(tmp_path)],
                              stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                              text=True, env=env)
             for _ in range(2)]
    outs = [p.communicate(timeout=120) for p in procs]
    assert [p.returncode for p in procs] == [0, 0], outs
    assert outs[0][0] == outs[1][0]
    assert len(list(tmp_path.glob("*.so"))) == 1
