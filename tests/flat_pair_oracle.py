"""The flat-pair evaluator: reference implementation for the tile evaluator.

This is the force evaluation :mod:`repro.gravity.treewalk` shipped before
group tiles, moved here verbatim: every (particle, source) pair of a
chunk of the pair list expanded into one flat row, the allocating
kernels run over the rows, four length-N ``bincount`` passes per chunk.
It sums in a different order from the tile evaluator, so the two agree
to ``rtol=1e-12``, not bitwise; interaction counts are equal exactly.
:func:`split_by_source` recovers each source's single-walk pair lists
from a forest walk, for the tests that evaluate source by source.
"""

import numpy as np

from repro.gravity.flops import InteractionCounts
from repro.gravity.kernels import pc_interactions, pp_interactions
from repro.gravity.treewalk import (DEFAULT_CHUNK, TreeWalkResult,
                                    _expand_ranges, group_aabbs,
                                    walk_interaction_lists)
from repro.octree import compute_opening_radii


def _bounded_slices(sizes: np.ndarray, chunk: int):
    """Yield pair-list slices ``(a, b)`` that each expand to ~chunk rows."""
    cum = np.cumsum(sizes)
    splits = np.searchsorted(cum, np.arange(chunk, int(cum[-1]), chunk),
                             side="left") + 1
    starts = np.concatenate(([0], splits, [len(sizes)]))
    for a, b in zip(starts[:-1].tolist(), starts[1:].tolist()):
        if a < b:
            yield a, b


def evaluate_pc_flat(acc: np.ndarray, phi: np.ndarray,
                     tpos: np.ndarray, source,
                     pc_g: np.ndarray, pc_c: np.ndarray,
                     group_first: np.ndarray, group_count: np.ndarray,
                     eps2: float, quadrupole: bool,
                     counts: InteractionCounts, chunk: int) -> None:
    n = len(tpos)
    sizes = group_count[pc_g]
    counts.n_pc += int(sizes.sum())
    for a, b in _bounded_slices(sizes, chunk):
        gs = pc_g[a:b]
        cs = pc_c[a:b]
        reps = group_count[gs]
        p = _expand_ranges(group_first[gs], reps)
        cell = np.repeat(cs, reps)
        dx = source.com[cell, 0] - tpos[p, 0]
        dy = source.com[cell, 1] - tpos[p, 1]
        dz = source.com[cell, 2] - tpos[p, 2]
        m = source.mass[cell]
        quad = source.quad[cell] if quadrupole else None
        ax, ay, az, ph = pc_interactions(dx, dy, dz, m, quad, eps2)
        acc[:, 0] += np.bincount(p, weights=ax, minlength=n)
        acc[:, 1] += np.bincount(p, weights=ay, minlength=n)
        acc[:, 2] += np.bincount(p, weights=az, minlength=n)
        phi += np.bincount(p, weights=ph, minlength=n)


def evaluate_pp_flat(acc: np.ndarray, phi: np.ndarray,
                     tpos: np.ndarray,
                     spos: np.ndarray, smass: np.ndarray,
                     pp_g: np.ndarray, pp_c: np.ndarray,
                     group_first: np.ndarray, group_count: np.ndarray,
                     body_first: np.ndarray, body_count: np.ndarray,
                     eps2: float, counts: InteractionCounts,
                     exclude_self: bool, chunk: int) -> None:
    n = len(tpos)
    gc = group_count[pp_g]
    bc = body_count[pp_c]
    sizes = (gc * bc).astype(np.int64)
    counts.n_pp += int(sizes.sum())
    for a, b in _bounded_slices(sizes, chunk):
        gs = pp_g[a:b]
        cs = pp_c[a:b]
        gcs = group_count[gs]
        bcs = body_count[cs]
        sz = (gcs * bcs).astype(np.int64)
        total = int(sz.sum())
        pair = np.repeat(np.arange(len(gs), dtype=np.int64), sz)
        off = np.arange(total, dtype=np.int64) - np.repeat(np.cumsum(sz) - sz, sz)
        bcp = bcs[pair]
        t = group_first[gs][pair] + off // bcp
        s = body_first[cs][pair] + off % bcp
        dx = spos[s, 0] - tpos[t, 0]
        dy = spos[s, 1] - tpos[t, 1]
        dz = spos[s, 2] - tpos[t, 2]
        m = smass[s]
        if exclude_self:
            m = np.where(t == s, 0.0, m)
        ax, ay, az, ph = pp_interactions(dx, dy, dz, m, eps2)
        if exclude_self and eps2 == 0.0:
            self_pair = t == s
            ax[self_pair] = ay[self_pair] = az[self_pair] = ph[self_pair] = 0.0
        acc[:, 0] += np.bincount(t, weights=ax, minlength=n)
        acc[:, 1] += np.bincount(t, weights=ay, minlength=n)
        acc[:, 2] += np.bincount(t, weights=az, minlength=n)
        phi += np.bincount(t, weights=ph, minlength=n)


def flat_tree_forces(tree, pos, mass, theta, eps=0.0, mac="bonsai",
                     quadrupole=True, source=None, source_pos=None,
                     source_mass=None, chunk=DEFAULT_CHUNK) -> TreeWalkResult:
    """:func:`~repro.gravity.treewalk.tree_forces`, flat: same walk, same
    arguments, the evaluators above."""
    tpos = pos[tree.order]
    self_gravity = source is None
    if self_gravity:
        source, source_pos, source_mass = tree, tpos, mass[tree.order]
    if getattr(source, "half", None) is not None:
        compute_opening_radii(source, theta, mac)
    pc_g, pc_c, pp_g, pp_c, max_frontier = walk_interaction_lists(
        source, *group_aabbs(tree, tpos))
    acc_sorted, phi_sorted = np.zeros((len(pos), 3)), np.zeros(len(pos))
    counts = InteractionCounts(quadrupole=quadrupole)
    if len(pc_g):
        evaluate_pc_flat(acc_sorted, phi_sorted, tpos, source, pc_g, pc_c,
                         tree.group_first, tree.group_count, eps * eps,
                         quadrupole, counts, chunk)
    if len(pp_g):
        evaluate_pp_flat(acc_sorted, phi_sorted, tpos, source_pos,
                         source_mass, pp_g, pp_c, tree.group_first,
                         tree.group_count, source.body_first,
                         source.body_count, eps * eps, counts, self_gravity,
                         chunk)
    acc, phi = np.empty_like(acc_sorted), np.empty_like(phi_sorted)
    acc[tree.order], phi[tree.order] = acc_sorted, phi_sorted
    return TreeWalkResult(acc=acc, phi=phi, counts=counts,
                          n_groups=len(tree.group_first),
                          max_frontier=max_frontier)


def split_by_source(forest, pg: np.ndarray, pc: np.ndarray
                    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Stable-partition a forest pair list by source.

    Returns ``(pg_sorted, pc_sorted, starts)`` where source ``i``'s
    pairs are ``[starts[i], starts[i+1])`` -- in exactly the order a
    dedicated single-source walk would have produced them (level-major,
    ascending in ``g`` within each level).
    """
    if len(pg) == 0:
        starts = np.zeros(forest.n_sources + 1, dtype=np.int64)
        return pg, pc, starts
    src = np.searchsorted(forest.cell_offsets, pc, side="right") - 1
    order = np.argsort(src, kind="stable")
    src_sorted = src[order]
    starts = np.searchsorted(
        src_sorted, np.arange(forest.n_sources + 1, dtype=np.int64))
    return pg[order], pc[order], starts
