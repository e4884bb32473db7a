"""Degenerate (group x list) tiles of the tile evaluator.

Every case is checked two ways: forces against the direct-sum oracle
(:mod:`repro.gravity.direct`), and interaction counts against the
flat-pair oracle (``tests/flat_pair_oracle.py``).
"""

import warnings

import numpy as np
import pytest

from repro.gravity import (SourceForest, direct_forces, tree_forces,
                           walk_forest_interaction_lists)
from repro.gravity.flops import InteractionCounts
from repro.gravity.kernels import point_forces_on_targets
from repro.gravity.treewalk import (DEFAULT_CHUNK, KernelWorkspace,
                                    SourceView, evaluate_pc_pairs,
                                    evaluate_pp_pairs, group_aabbs,
                                    walk_interaction_lists)
from repro.octree import (build_octree, compute_moments,
                          compute_opening_radii, make_groups)
from repro.parallel import build_let_for_box
from repro.testing import max_rel_difference

from .flat_pair_oracle import (evaluate_pc_flat, evaluate_pp_flat,
                               flat_tree_forces, split_by_source)

THETA = 0.5
EPS = 0.02
ENVELOPE = 0.3 * THETA ** 2


def _cloud(n, seed, scale=1.0, centre=(0.0, 0.0, 0.0)):
    rng = np.random.default_rng(seed)
    return (rng.normal(size=(n, 3)) * scale + np.asarray(centre),
            rng.uniform(0.5, 1.0, n))


def _tree(pos, mass, ncrit=64, nleaf=16):
    tree = build_octree(pos, nleaf=nleaf)
    compute_moments(tree, pos, mass)
    make_groups(tree, ncrit)
    return tree


def _tile_and_reference(tree, pos, mass, eps=EPS, **kw):
    """Tile evaluator vs the flat-pair oracle: counts equal, forces 1e-12."""
    shared = {k: v for k, v in kw.items() if k not in ("chunk", "precision")}
    tile = tree_forces(tree, pos, mass, theta=THETA, eps=eps, **kw)
    ref = flat_tree_forces(tree, pos, mass, theta=THETA, eps=eps, **shared)
    assert tile.counts == ref.counts
    if kw.get("precision", "float64") == "float64":
        np.testing.assert_allclose(tile.acc, ref.acc, rtol=1e-12, atol=1e-13)
        np.testing.assert_allclose(tile.phi, ref.phi, rtol=1e-12, atol=1e-13)
    return tile


def test_groups_of_one_particle():
    pos, mass = _cloud(300, 1)
    tree = _tree(pos, mass, ncrit=1, nleaf=1)
    assert tree.group_count.max() == 1
    tile = _tile_and_reference(tree, pos, mass)
    acc_d, _ = direct_forces(pos, mass, eps=EPS)
    assert max_rel_difference(tile.acc, acc_d) < ENVELOPE


def test_list_of_one_entry():
    """A compact far-away source: every group accepts its root, so each
    p-c list has one entry and each p-p list none."""
    pos, mass = _cloud(200, 2)
    spos, smass = _cloud(150, 3, scale=0.05, centre=(40.0, 0.0, 0.0))
    tree = _tree(pos, mass)
    src = _tree(spos, smass)
    sp, sm = spos[src.order], smass[src.order]
    tile = _tile_and_reference(tree, pos, mass, source=src, source_pos=sp,
                               source_mass=sm)
    n_groups = len(tree.group_first)
    assert tile.counts.n_pc == len(pos) and tile.counts.n_pp == 0
    pc_g = walk_interaction_lists(
        src, *group_aabbs(tree, pos[tree.order]))[0]
    assert np.array_equal(np.sort(pc_g), np.arange(n_groups))
    acc_d, phi_d = point_forces_on_targets(pos, spos, smass, EPS ** 2)
    assert max_rel_difference(tile.acc, acc_d) < ENVELOPE
    np.testing.assert_allclose(tile.phi, phi_d, rtol=ENVELOPE)


@pytest.mark.parametrize("n", [12, 40])
def test_root_is_the_only_group(n):
    """N <= ncrit: one group, which walks only into itself -- all p-p,
    equal to direct summation to round-off.  n=12 is a single leaf,
    n=40 a root with children."""
    pos, mass = _cloud(n, 4)
    tree = _tree(pos, mass)
    assert len(tree.group_first) == 1
    tile = _tile_and_reference(tree, pos, mass)
    assert tile.counts.n_pc == 0 and tile.counts.n_pp == n * n
    acc_d, phi_d = direct_forces(pos, mass, eps=EPS)
    np.testing.assert_allclose(tile.acc, acc_d, rtol=1e-12, atol=1e-13)
    np.testing.assert_allclose(tile.phi, phi_d, rtol=1e-12)


def test_stuck_group_larger_than_chunk():
    """Coincident particles bottom out at max depth in one leaf that is
    also one group; with chunk < m the tile takes one entry at a time."""
    pos, mass = _cloud(200, 5)
    pos[:90] = pos[0]
    tree = _tree(pos, mass)
    m = int(tree.group_count.max())
    assert m == 90
    chunk = 32
    assert chunk // m == 0
    tile = _tile_and_reference(tree, pos, mass, chunk=chunk)
    acc_d, _ = direct_forces(pos, mass, eps=EPS)
    assert max_rel_difference(tile.acc, acc_d) < ENVELOPE


def test_tile_split_along_the_list_axis():
    pos, mass = _cloud(1500, 6)
    tree = _tree(pos, mass)
    whole = _tile_and_reference(tree, pos, mass, chunk=1 << 30)
    # 300 elements per tile: a 64-particle group takes 4 entries at a time.
    split = _tile_and_reference(tree, pos, mass, chunk=300)
    assert split.counts == whole.counts
    np.testing.assert_allclose(split.acc, whole.acc, rtol=1e-12, atol=1e-13)
    np.testing.assert_allclose(split.phi, whole.phi, rtol=1e-12)
    acc_d, _ = direct_forces(pos, mass, eps=EPS)
    assert max_rel_difference(split.acc, acc_d) < ENVELOPE


def test_let_with_pruned_leaves():
    pos, mass = _cloud(400, 7)
    spos, smass = _cloud(1200, 8, centre=(6.0, 0.0, 0.0))
    tree = _tree(pos, mass)
    src = _tree(spos, smass)
    compute_opening_radii(src, THETA, "bonsai")
    sp, sm = spos[src.order], smass[src.order]

    # The LET built for the targets' own box: pruned leaves are always
    # accepted, and the forces are the full source's.
    let = build_let_for_box(src, sp, sm, pos.min(axis=0), pos.max(axis=0))
    pruned = (let.n_children == 0) & (let.body_count == 0)
    assert pruned.any()
    tile = _tile_and_reference(tree, pos, mass, source=let,
                               source_pos=let.part_pos,
                               source_mass=let.part_mass)
    acc_d, _ = point_forces_on_targets(pos, spos, smass, EPS ** 2)
    assert max_rel_difference(tile.acc, acc_d) < ENVELOPE

    # A LET built for a far smaller box than the targets fill: pruned
    # leaves now fail the MAC and land in p-p lists with no bodies.
    let = build_let_for_box(src, sp, sm, np.full(3, -0.01), np.full(3, 0.01))
    gmin, gmax = group_aabbs(tree, pos[tree.order])
    pp_c = walk_interaction_lists(let, gmin, gmax)[3]
    assert (let.body_count[pp_c] == 0).any()
    _tile_and_reference(tree, pos, mass, source=let,
                        source_pos=let.part_pos, source_mass=let.part_mass)


def test_eps_zero_self_pairs_are_warning_clean():
    pos, mass = _cloud(500, 9)
    tree = _tree(pos, mass)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        tile = _tile_and_reference(tree, pos, mass, eps=0.0)
    assert np.isfinite(tile.acc).all() and np.isfinite(tile.phi).all()
    acc_d, _ = direct_forces(pos, mass, eps=0.0)
    assert max_rel_difference(tile.acc, acc_d) < ENVELOPE


def test_float32_tiles_inside_the_envelope():
    pos, mass = _cloud(1500, 10)
    tree = _tree(pos, mass)
    tile = _tile_and_reference(tree, pos, mass, precision="float32")
    acc_d, _ = direct_forces(pos, mass, eps=EPS)
    assert max_rel_difference(tile.acc, acc_d) < ENVELOPE
    f64 = tree_forces(tree, pos, mass, theta=THETA, eps=EPS)
    assert 0.0 < max_rel_difference(tile.acc, f64.acc) < 1e-4


def test_monopole_pc_tiles():
    pos, mass = _cloud(1500, 11)
    tree = _tree(pos, mass)
    tile = _tile_and_reference(tree, pos, mass, quadrupole=False)
    assert tile.counts.n_pc > 0 and not tile.counts.quadrupole
    acc_d, _ = direct_forces(pos, mass, eps=EPS)
    assert max_rel_difference(tile.acc, acc_d) < ENVELOPE


@pytest.mark.parametrize("precision", ["float64", "float32"])
@pytest.mark.parametrize("chunk", [DEFAULT_CHUNK, 300])
def test_batch_tile_sums_each_source_by_itself(precision, chunk):
    """A forest's pair lists in one call: a group's tile spans the lists
    of all the sources, each source's part is summed separately and in
    forest order -- bitwise what one call per source accumulates (at
    chunk=300 a 40-particle group sums 7 entries at a time, counted from
    each source's own start, and a tile holds one such piece)."""
    pos, mass = _cloud(500, 30)
    tree = _tree(pos, mass)
    spos_t = pos[tree.order]
    box = pos.min(axis=0), pos.max(axis=0)
    lets, everyone = [], []
    for i, centre in enumerate([(5, 0, 0), (0, 7, 0), (-4, -4, 0), (0, 0, 60)]):
        sp, sm = _cloud(300 + 100 * i, 31 + i, centre=centre)
        src = _tree(sp, sm)
        compute_opening_radii(src, THETA, "bonsai")
        lets.append(build_let_for_box(src, sp[src.order], sm[src.order], *box))
        everyone.append((sp, sm))
    forest = SourceForest.concatenate(lets, range(len(lets)))
    gmin, gmax = group_aabbs(tree, spos_t)
    pc_g, pc_c, pp_g, pp_c, _ = walk_forest_interaction_lists(
        forest, gmin, gmax)
    eps2 = EPS ** 2

    ws = KernelWorkspace(chunk, precision)

    def tile_kw(view_offsets):
        sview = SourceView.build(forest, forest.part_pos, forest.part_mass)
        sview.cell_offsets = view_offsets
        return dict(workspace=ws, sview=sview)

    def evaluate(lists, pc_eval=evaluate_pc_pairs, pp_eval=evaluate_pp_pairs,
                 **kw):
        out = [np.zeros((len(pos), 3)), np.zeros(len(pos)),
               np.zeros((len(pos), 3)), np.zeros(len(pos))]
        counts = InteractionCounts()
        for g1, c1, g2, c2 in lists:
            pc_eval(out[0], out[1], spos_t, forest, g1, c1,
                    tree.group_first, tree.group_count, eps2, True, counts,
                    chunk, **kw)
            pp_eval(out[2], out[3], spos_t, forest.part_pos,
                    forest.part_mass, g2, c2, tree.group_first,
                    tree.group_count, forest.body_first, forest.body_count,
                    eps2, counts, False, chunk, **kw)
        return out, counts

    pcs = split_by_source(forest, pc_g, pc_c)
    pps = split_by_source(forest, pp_g, pp_c)
    per_source = [(pcs[0][a:b], pcs[1][a:b], pps[0][c:d], pps[1][c:d])
                  for a, b, c, d in zip(pcs[2][:-1], pcs[2][1:],
                                        pps[2][:-1], pps[2][1:])]
    batch, n_batch = evaluate([(pc_g, pc_c, pp_g, pp_c)],
                              **tile_kw(forest.cell_offsets))
    alone, n_alone = evaluate(per_source, **tile_kw(None))
    ref, n_ref = evaluate([(pc_g, pc_c, pp_g, pp_c)],
                          evaluate_pc_flat, evaluate_pp_flat)
    assert n_batch == n_alone == n_ref and n_batch.n_pp and n_batch.n_pc
    for b, a in zip(batch, alone):
        assert b.tobytes() == a.tobytes()
    acc_d = sum(point_forces_on_targets(pos, sp, sm, eps2)[0]
                for sp, sm in everyone)
    acc = np.empty_like(acc_d)
    acc[tree.order] = batch[0] + batch[2]
    assert max_rel_difference(acc, acc_d) < ENVELOPE
    if precision == "float64":
        np.testing.assert_allclose(batch[0] + batch[2], ref[0] + ref[2],
                                   rtol=1e-12, atol=1e-13)
