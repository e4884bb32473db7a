"""Group-centric Barnes-Hut tree walk with on-the-fly evaluation.

Reproduces Bonsai's fused tree-walk + force kernel (Sec. III-A): the walk
proceeds once per particle *group* (warp), testing the MAC between the
group's tight AABB and each cell's COM / opening radius.  Accepted cells
become particle-cell (p-c) interactions shared by the whole group; leaf
cells that fail the MAC become particle-particle (p-p) interactions.
Every particle of a group shares the group's list, and the evaluator
keeps that structure: one dense (group x list) tile per group, evaluated
in bounded pieces, mirroring the shared-memory staging and
register-resident evaluation the paper credits for its single-GPU
efficiency.

The same machinery walks *remote* LET trees (Sec. III-B2): the walk is
parameterised by an arbitrary source tree, so the distributed code feeds
each received LET through this function and sums the partial forces.
:mod:`repro.gravity.forest` batches many remote structures into a single
walk over a concatenated cell forest.

Evaluation: pairs are stable-sorted by group once.  A group's ``m``
targets are a contiguous slice of the sorted target columns (no gather);
its ``k`` list entries are gathered once per operand row (``O(m + k)``
elements, not ``O(m k)``); the separations ``src[None, :] -
tgt[:, None]`` are written straight into ``(m, k)`` views of a reused
:class:`KernelWorkspace` (grown to the largest tile requested); the
in-place kernels run on the tile with mass / quadrupole rows broadcast,
never materialised; and the tile is summed along the list axis in
float64 into the group's slice of the accumulators.  ``chunk`` bounds
the elements per tile and reserves no memory: a longer list is split
along the list axis, and a ``chunk`` wider than every tile is one
unsplit pass.  The cost of a tile is ~90 ufunc calls
whatever its size, so the evaluator is fast where ``m k`` is large: over
a forest of sources (:mod:`repro.gravity.forest`) a group's list is the
sources' lists laid end to end in one tile, each source's part summed by
itself so the result is bitwise that of one evaluation per source.
``precision="float32"`` evaluates in single precision with float64
accumulators.

Interaction *counts* are a property of the walk's pair lists, which the
evaluator does not touch.  The flat (particle, source) pair expansion
this replaced lives on as the test oracle
(``tests/flat_pair_oracle.py``); forces agree to summation order
(``rtol=1e-12``).
"""

from __future__ import annotations

import dataclasses
import mmap

import numpy as np

from ..octree import Octree, compute_opening_radii
from ..octree.properties import aabb_distance
from .flops import InteractionCounts
from .kernels import pc_interactions_ws, pp_interactions_ws

#: Upper bound on the elements of one (group x list) evaluation tile.
#: Sized so the workspace's twelve tile buffers stay cache-resident.
DEFAULT_CHUNK = 1 << 15

#: Evaluation precisions.
PRECISIONS = ("float64", "float32")


@dataclasses.dataclass
class TreeWalkResult:
    """Output of a tree-walk force computation.

    ``acc``/``phi`` are indexed by the *original* particle order of the
    target set.  ``counts`` tallies p-p and p-c interactions exactly as
    Table II reports them.
    """

    acc: np.ndarray
    phi: np.ndarray
    counts: InteractionCounts
    n_groups: int = 0
    max_frontier: int = 0


class KernelWorkspace:
    """Reusable scratch arena for the tile evaluators.

    One workspace serves every tile of every source a rank evaluates:
    twelve tile buffers in the evaluation dtype (the three separations,
    which become the accelerations, and nine kernel temporaries; an
    ``(m, k)`` tile is a reshaped prefix of each) plus one row buffer
    for ``tr Q``.  The arena starts empty whatever ``chunk`` is:
    ``chunk`` bounds how wide the evaluators cut a tile and reserves no
    memory (the argument keeps
    :meth:`~repro.gravity.backends.ComputeBackend.make_workspace`'s
    signature).  :meth:`tiles` grows the arena to the largest tile
    requested and reuses it from then on -- a warm evaluation performs
    no tile-sized allocation; the ``O(m + k)`` operand rows of a group
    are ordinary small arrays.

    ``precision="float32"`` makes the buffers single precision (the
    paper's GPU kernels); separations are formed from float64 inputs and
    downcast once on ``out=``, and the per-particle sums along the list
    axis are accumulated in float64.
    """

    #: Tile buffers, in the order :meth:`tiles` returns them: dx, dy, dz,
    #: r2, tmp, qrx, qry, qrz and four more kernel temporaries.
    N_TILES = 12

    def __init__(self, chunk: int = DEFAULT_CHUNK, precision: str = "float64"):
        if precision not in PRECISIONS:
            raise ValueError(f"unknown precision {precision!r}; "
                             f"expected one of {PRECISIONS}")
        self.precision = precision
        self.dtype = np.float32 if precision == "float32" else np.float64
        self.chunk = 0
        self._tiles: list[np.ndarray] = []
        self.trq = np.empty(0, dtype=self.dtype)

    def ensure(self, chunk: int) -> "KernelWorkspace":
        """Grow the arena to hold tiles of ``chunk`` elements (never
        shrinks it)."""
        if chunk > self.chunk:
            self.chunk = int(chunk)
            # One private anonymous mapping per size: an arena grown
            # past goes back to the OS whole instead of leaving holes
            # in the malloc heap, which would raise peak RSS.
            block = np.frombuffer(
                mmap.mmap(-1, self.nbytes, flags=mmap.MAP_PRIVATE),
                dtype=self.dtype).reshape(self.N_TILES + 1, self.chunk)
            *self._tiles, self.trq = block
        return self

    def tiles(self, m: int, k: int, n: int = N_TILES) -> list[np.ndarray]:
        """The first ``n`` tile buffers as ``(m, k)`` views."""
        self.ensure(m * k)
        return [buf[:m * k].reshape(m, k) for buf in self._tiles[:n]]

    @property
    def nbytes(self) -> int:
        """Size of the arena as grown so far (for memory accounting)."""
        return (self.chunk * (self.N_TILES + 1)
                * np.dtype(self.dtype).itemsize)


class SourceView:
    """Contiguous column view of a source structure for fast gathers.

    ``np.take`` on a contiguous 1-D array is the fastest gather numpy
    offers; the tree/LET arrays are (n, 3) and (n, 6) row-major, so the
    per-column copies here pay for themselves after the first group.
    Built once per source (or once per forest) and shared by both
    evaluators.  A view made by :meth:`for_particles` carries no cell
    moments (``com_*``/``mass``/``quad`` are None) and serves p-p only.
    ``cell_offsets`` is the source's own when it is a forest of several
    structures (None otherwise): the evaluators sum each structure's
    part of a group's list separately, in forest order.
    """

    __slots__ = ("com_x", "com_y", "com_z", "mass", "quad", "cell_offsets",
                 "body_first", "body_count", "sx", "sy", "sz", "smass")

    @classmethod
    def for_particles(cls, spos: np.ndarray | None, smass: np.ndarray | None,
                      body_first: np.ndarray, body_count: np.ndarray
                      ) -> "SourceView":
        """View of the leaf bodies alone (``spos`` None: no bodies either)."""
        v = cls()
        v.com_x = v.com_y = v.com_z = v.mass = v.quad = None
        v.cell_offsets = None
        v.body_first = np.asarray(body_first, dtype=np.int64)
        v.body_count = np.asarray(body_count, dtype=np.int64)
        if spos is not None:
            v.sx, v.sy, v.sz = target_columns(spos)
            v.smass = np.ascontiguousarray(smass)
        else:
            v.sx = v.sy = v.sz = v.smass = None
        return v

    @classmethod
    def build(cls, source, spos: np.ndarray | None = None,
              smass: np.ndarray | None = None) -> "SourceView":
        v = cls.for_particles(spos, smass, source.body_first,
                              source.body_count)
        v.com_x, v.com_y, v.com_z = target_columns(source.com)
        v.mass = np.ascontiguousarray(source.mass)
        q = getattr(source, "quad", None)
        v.quad = tuple(np.ascontiguousarray(q[:, k]) for k in range(6)) \
            if q is not None else None
        v.cell_offsets = getattr(source, "cell_offsets", None)
        return v


def target_columns(tpos: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Contiguous per-axis columns of the (sorted) target positions."""
    return (np.ascontiguousarray(tpos[:, 0]),
            np.ascontiguousarray(tpos[:, 1]),
            np.ascontiguousarray(tpos[:, 2]))


def group_aabbs(tree: Octree, spos: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Tight AABBs of the tree's particle groups (sorted positions)."""
    if tree.group_first is None:
        raise ValueError("make_groups must run before the tree walk")
    starts = tree.group_first.astype(np.intp)
    gmin = np.empty((len(starts), 3))
    gmax = np.empty((len(starts), 3))
    for k in range(3):
        gmin[:, k] = np.minimum.reduceat(spos[:, k], starts)
        gmax[:, k] = np.maximum.reduceat(spos[:, k], starts)
    return gmin, gmax


def walk_frontier(first_child: np.ndarray, n_children: np.ndarray,
                  com: np.ndarray, r_crit: np.ndarray,
                  gmin: np.ndarray, gmax: np.ndarray,
                  g: np.ndarray, c: np.ndarray
                  ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, int]:
    """Drive a (group, cell) frontier to completion.

    The core breadth-first MAC loop, parameterised by the initial
    frontier so that :mod:`repro.gravity.forest` can seed it with every
    remote source at once.  Mask selection and ``np.repeat`` both
    preserve relative order, so the pair lists of a multi-source
    frontier are the per-source lists interleaved level-major -- a
    stable sort by source id recovers each source's single-walk pair
    order exactly (the batched-walk equivalence the fast path relies
    on).
    """
    pc_g_parts: list[np.ndarray] = []
    pc_c_parts: list[np.ndarray] = []
    pp_g_parts: list[np.ndarray] = []
    pp_c_parts: list[np.ndarray] = []
    max_frontier = 0

    while len(g):
        max_frontier = max(max_frontier, len(g))
        d = aabb_distance(gmin[g], gmax[g], com[c])
        accept = d > r_crit[c]
        leaf = n_children[c] == 0

        take_pc = accept
        take_pp = (~accept) & leaf
        open_ = (~accept) & (~leaf)

        if take_pc.any():
            pc_g_parts.append(g[take_pc])
            pc_c_parts.append(c[take_pc])
        if take_pp.any():
            pp_g_parts.append(g[take_pp])
            pp_c_parts.append(c[take_pp])

        if open_.any():
            og = g[open_]
            oc = c[open_]
            nch = n_children[oc]
            g = np.repeat(og, nch)
            total = int(nch.sum())
            offs = np.arange(total, dtype=np.int64) - np.repeat(
                np.cumsum(nch) - nch, nch)
            c = np.repeat(first_child[oc], nch) + offs
        else:
            break

    def cat(parts: list[np.ndarray]) -> np.ndarray:
        return np.concatenate(parts) if parts else np.empty(0, dtype=np.int64)

    return cat(pc_g_parts), cat(pc_c_parts), cat(pp_g_parts), cat(pp_c_parts), max_frontier


def walk_interaction_lists(source, gmin: np.ndarray, gmax: np.ndarray
                           ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, int]:
    """Walk ``source`` once per target group, building interaction pairs.

    Parameters
    ----------
    source:
        Source octree (or LET-like structure) with moments and
        ``r_crit`` filled in -- or a
        :class:`~repro.gravity.forest.SourceForest` of several, whose
        roots (``cell_offsets[:-1]``) seed one frontier, source-major.
    gmin, gmax:
        (G, 3) tight AABBs of the target groups.

    Returns
    -------
    pc_g, pc_c:
        Group and cell indices of accepted (multipole) interactions.
    pp_g, pp_c:
        Group and cell indices of opened leaves (direct interactions).
    max_frontier:
        Peak size of the traversal frontier (a walk-cost diagnostic).
    """
    if source.r_crit is None:
        raise ValueError("compute_opening_radii must run before the walk")
    offsets = getattr(source, "cell_offsets", None)
    roots = np.zeros(1, dtype=np.int64) if offsets is None else offsets[:-1]
    n_groups = len(gmin)
    g = np.tile(np.arange(n_groups, dtype=np.int64), len(roots))
    c = np.repeat(roots, n_groups)
    return walk_frontier(source.first_child, source.n_children,
                         source.com, source.r_crit, gmin, gmax, g, c)


def _expand_ranges(first: np.ndarray, count: np.ndarray) -> np.ndarray:
    """Concatenate [first_i, first_i + count_i) ranges into one index array."""
    total = int(count.sum())
    if total == 0:
        return np.empty(0, dtype=np.int64)
    reps = np.repeat(np.arange(len(first), dtype=np.int64), count)
    offs = np.arange(total, dtype=np.int64) - np.repeat(np.cumsum(count) - count, count)
    return first[reps] + offs


# ---------------------------------------------------------------------------
# Tile evaluators: one dense (group x list) tile per group.
# ---------------------------------------------------------------------------

def _group_runs(pg: np.ndarray, pc: np.ndarray,
                cell_offsets: np.ndarray | None = None):
    """Sort a pair list by group and yield ``(group, entries, cuts)``.

    Each yield is one group's whole interaction list.  Over a forest
    (``cell_offsets`` the prefix of its sources' cell counts) the list
    is the sources' lists one after another, each in walk order, and
    ``cuts`` the offsets at which they start (plus the list's length);
    a single source gives ``cuts = [0, len(entries)]``.  Both sorts are
    stable, and walk output is a concatenation of per-level slices each
    already ascending in ``g``, so they run in near-linear time.
    """
    if cell_offsets is None:
        order = np.argsort(pg, kind="stable")
    else:
        src = np.searchsorted(cell_offsets, pc, side="right")
        order = np.lexsort((src, pg))
        src = src[order]
    gs, cs = pg[order], pc[order]
    new_group = gs[1:] != gs[:-1]
    new_run = new_group if cell_offsets is None \
        else new_group | (src[1:] != src[:-1])
    runs = np.concatenate(([0], np.flatnonzero(new_run) + 1, [len(gs)]))
    # Position in ``runs`` of each group's first run.
    first = np.concatenate(
        ([0], np.flatnonzero(new_group[runs[1:-1] - 1]) + 1,
         [len(runs) - 1])).tolist()
    for i, j in zip(first[:-1], first[1:]):
        a = int(runs[i])
        yield int(gs[a]), cs[a:runs[j]], runs[i:j + 1] - a


def _list_tiles(ws: KernelWorkspace, n_buf: int, tview, gf: int, m: int,
                sx: np.ndarray, sy: np.ndarray, sz: np.ndarray,
                cuts: list, chunk: int):
    """Yield ``(lo, hi, pieces, tiles)`` over one group's list.

    The group's ``m`` targets are the contiguous slice ``[gf, gf + m)``
    of the sorted target columns and ``sx``/``sy``/``sz`` the positions
    of its list entries, gathered once.  Each tile is the broadcast
    ``src[None, lo:hi] - tgt[:, None]`` (a float64 subtraction, downcast
    on ``out=``) written into the first three of ``n_buf`` views of the
    workspace, each ``(m, hi - lo)``; no tile exceeds ``chunk`` elements
    (a group of more than ``chunk`` particles takes one entry at a time).

    ``pieces`` are the column ranges of the tile that are summed
    separately: every source's run (``cuts``) in steps of ``chunk // m``
    entries counted from the run's own start.  They do not depend on
    what else shares the list, so a source adds bitwise the same partial
    sums evaluated alone or in a batch; a tile takes as many whole
    pieces as fit.
    """
    tx, ty, tz = (t[gf:gf + m, None] for t in tview)
    width = max(1, chunk // m)
    ends = [min(p + width, b) for a, b in zip(cuts[:-1], cuts[1:])
            for p in range(a, b, width)]
    lo = i = 0
    while i < len(ends):
        j = i + 1
        while j < len(ends) and ends[j] - lo <= width:
            j += 1
        hi = ends[j - 1]
        tiles = ws.tiles(m, hi - lo, n_buf)
        np.subtract(sx[None, lo:hi], tx, out=tiles[0])
        np.subtract(sy[None, lo:hi], ty, out=tiles[1])
        np.subtract(sz[None, lo:hi], tz, out=tiles[2])
        yield lo, hi, [p - lo for p in [lo] + ends[i:j]], tiles
        lo, i = hi, j


def _reduce_tile(acc_cols, gf: int, m: int, vals, pieces: list) -> None:
    """Sum a tile's pieces along the list axis (in float64) into the group."""
    for col, val in zip(acc_cols, vals):
        for a, b in zip(pieces[:-1], pieces[1:]):
            col[gf:gf + m] += np.add.reduce(val[:, a:b], axis=1,
                                            dtype=np.float64)


def _evaluate_pc_tiles(accx, accy, accz, accp,
                       tview, sv: SourceView,
                       pc_g: np.ndarray, pc_c: np.ndarray,
                       group_first: np.ndarray, group_count: np.ndarray,
                       eps2: float, quadrupole: bool,
                       counts: InteractionCounts, chunk: int,
                       ws: KernelWorkspace) -> None:
    if quadrupole and sv.quad is None:
        raise ValueError("quadrupole evaluation needs source quadrupoles")
    cols = (sv.com_x, sv.com_y, sv.com_z, sv.mass) \
        + (sv.quad if quadrupole else ())
    acc_cols = (accx, accy, accz, accp)
    for g, cells, cuts in _group_runs(pc_g, pc_c, sv.cell_offsets):
        gf, m = int(group_first[g]), int(group_count[g])
        counts.n_pc += m * len(cells)
        # O(m + k): one take per operand row; the tile broadcasts them.
        sx, sy, sz, *rows = (col.take(cells) for col in cols)
        rows = [r.astype(ws.dtype, copy=False) for r in rows]
        for lo, hi, pieces, tiles in _list_tiles(
                ws, ws.N_TILES, tview, gf, m, sx, sy, sz, cuts.tolist(),
                chunk):
            mass, *quad = (r[lo:hi] for r in rows)
            dx, dy, dz, r2, tmp, qrx, qry, qrz, *scratch = tiles
            _reduce_tile(acc_cols, gf, m, pc_interactions_ws(
                dx, dy, dz, mass, quad or None, eps2, r2, tmp,
                ws.trq[:hi - lo], qrx, qry, qrz, scratch), pieces)


def _evaluate_pp_tiles(accx, accy, accz, accp,
                       tview, sv: SourceView,
                       pp_g: np.ndarray, pp_c: np.ndarray,
                       group_first: np.ndarray, group_count: np.ndarray,
                       eps2: float, counts: InteractionCounts,
                       exclude_self: bool, chunk: int,
                       ws: KernelWorkspace) -> None:
    acc_cols = (accx, accy, accz, accp)
    for g, leaves, cuts in _group_runs(pp_g, pp_c, sv.cell_offsets):
        gf, m = int(group_first[g]), int(group_count[g])
        # The list is the concatenated bodies of the group's leaves
        # (pruned multipole-only leaves of a LET contribute none).
        nb = sv.body_count[leaves]
        bodies = _expand_ranges(sv.body_first[leaves], nb)
        cuts = np.concatenate(([0], np.cumsum(nb)))[cuts].tolist()
        counts.n_pp += m * len(bodies)
        sx, sy, sz = (col.take(bodies) for col in (sv.sx, sv.sy, sv.sz))
        mass = sv.smass.take(bodies).astype(ws.dtype, copy=False)
        # Target row a body *is* (targets and sources are one sorted set).
        own = bodies - gf if exclude_self else None
        for lo, hi, pieces, tiles in _list_tiles(
                ws, 5, tview, gf, m, sx, sy, sz, cuts, chunk):
            self_pairs = None
            if exclude_self:
                row = own[lo:hi]
                col = np.flatnonzero((row >= 0) & (row < m))
                if len(col):
                    self_pairs = (row[col], col)
            dx, dy, dz, r2, tmp = tiles
            _reduce_tile(acc_cols, gf, m, pp_interactions_ws(
                dx, dy, dz, mass[lo:hi], eps2, r2, tmp, self_pairs), pieces)


# ---------------------------------------------------------------------------
# Public evaluators: resolve the backend and the reusable views.
# ---------------------------------------------------------------------------

def evaluate_pc_pairs(acc: np.ndarray, phi: np.ndarray,
                      tpos: np.ndarray, source,
                      pc_g: np.ndarray, pc_c: np.ndarray,
                      group_first: np.ndarray, group_count: np.ndarray,
                      eps2: float, quadrupole: bool,
                      counts: InteractionCounts,
                      chunk: int = DEFAULT_CHUNK,
                      workspace: KernelWorkspace | None = None,
                      sview: SourceView | None = None,
                      tview=None,
                      backend="numpy") -> None:
    """Evaluate particle-cell pairs, accumulating into acc/phi (sorted order).

    ``backend`` is a registered compute-backend name or a resolved
    :class:`~repro.gravity.backends.ComputeBackend` instance (hot paths
    resolve once per step and pass the object).
    """
    if len(pc_g) == 0:
        return
    from .backends import get_backend
    be = get_backend(backend)
    ws = workspace if workspace is not None else be.make_workspace(chunk)
    sv = sview if sview is not None else SourceView.build(source)
    tv = tview if tview is not None else target_columns(tpos)
    be.evaluate_pc(acc[:, 0], acc[:, 1], acc[:, 2], phi, tv, sv,
                   pc_g, pc_c, group_first, group_count, eps2,
                   quadrupole, counts, chunk, ws)


def evaluate_pp_pairs(acc: np.ndarray, phi: np.ndarray,
                      tpos: np.ndarray,
                      spos: np.ndarray, smass: np.ndarray,
                      pp_g: np.ndarray, pp_c: np.ndarray,
                      group_first: np.ndarray, group_count: np.ndarray,
                      body_first: np.ndarray, body_count: np.ndarray,
                      eps2: float,
                      counts: InteractionCounts,
                      exclude_self: bool,
                      chunk: int = DEFAULT_CHUNK,
                      workspace: KernelWorkspace | None = None,
                      sview: SourceView | None = None,
                      tview=None,
                      backend="numpy") -> None:
    """Evaluate particle-particle (group x leaf) pairs.

    ``exclude_self`` zeroes the contribution of identical sorted indices,
    which is required when targets and sources are the same particle set
    (the group inevitably walks into its own leaves).  ``backend`` as in
    :func:`evaluate_pc_pairs`.
    """
    if len(pp_g) == 0:
        return
    from .backends import get_backend
    be = get_backend(backend)
    ws = workspace if workspace is not None else be.make_workspace(chunk)
    sv = sview if sview is not None and sview.sx is not None \
        else SourceView.for_particles(spos, smass, body_first, body_count)
    tv = tview if tview is not None else target_columns(tpos)
    be.evaluate_pp(acc[:, 0], acc[:, 1], acc[:, 2], phi, tv, sv,
                   pp_g, pp_c, group_first, group_count, eps2,
                   counts, exclude_self, chunk, ws)


class ForcePass:
    """One force evaluation onto one target tree, source by source.

    The one place a source is walked onto a target tree and its pair
    lists are evaluated.  Holds what every source of the pass shares:
    the target ``tree`` with its sorted positions ``spos`` (and their
    :func:`target_columns` / :func:`group_aabbs`), the workspace, the
    resolved backend, and two accumulator pairs -- p-c and p-p sums are
    kept apart until :meth:`finish`, so each receives its contributions
    source by source in the same sequence whether a source is added
    alone or as part of a forest.
    """

    def __init__(self, tree: Octree, spos: np.ndarray, eps2: float,
                 quadrupole: bool = True, chunk: int = DEFAULT_CHUNK,
                 precision: str = "float64",
                 workspace: KernelWorkspace | None = None,
                 backend="numpy"):
        from .backends import get_backend
        self.tree, self.spos = tree, spos
        self.eps2, self.quadrupole, self.chunk = eps2, quadrupole, chunk
        self.backend = get_backend(backend)
        self.workspace = workspace if workspace is not None \
            else self.backend.make_workspace(chunk, precision)
        self.target_columns = target_columns(spos)
        self.group_aabbs = group_aabbs(tree, spos)
        n = len(spos)
        self.acc_pc, self.acc_pp = np.zeros((n, 3)), np.zeros((n, 3))
        self.phi_pc, self.phi_pp = np.zeros(n), np.zeros(n)

    def add(self, source, part_pos: np.ndarray, part_mass: np.ndarray,
            counts: InteractionCounts, exclude_self: bool = False) -> int:
        """Walk ``source`` and add its forces; returns the peak frontier.

        ``source`` is a tree, a LET-like structure or a forest of them
        (whose sources' lists the tile evaluator concatenates per group
        and sums separately, in forest order); ``part_pos``/``part_mass``
        are its leaf bodies.  ``exclude_self`` is for the target tree
        as its own source.  Interactions are tallied into ``counts``.
        """
        tree = self.tree
        pc_g, pc_c, pp_g, pp_c, peak = walk_interaction_lists(
            source, *self.group_aabbs)
        kw = dict(chunk=self.chunk, workspace=self.workspace,
                  sview=SourceView.build(source, part_pos, part_mass),
                  tview=self.target_columns, backend=self.backend)
        evaluate_pc_pairs(self.acc_pc, self.phi_pc, self.spos, source,
                          pc_g, pc_c, tree.group_first, tree.group_count,
                          self.eps2, self.quadrupole, counts, **kw)
        evaluate_pp_pairs(self.acc_pp, self.phi_pp, self.spos, part_pos,
                          part_mass, pp_g, pp_c, tree.group_first,
                          tree.group_count, source.body_first,
                          source.body_count, self.eps2, counts,
                          exclude_self=exclude_self, **kw)
        return peak

    def finish(self) -> tuple[np.ndarray, np.ndarray]:
        """Sum p-c and p-p; returns (acc, phi) in the tree's original
        particle order."""
        acc = np.empty_like(self.acc_pc)
        phi = np.empty_like(self.phi_pc)
        acc[self.tree.order] = self.acc_pc + self.acc_pp
        phi[self.tree.order] = self.phi_pc + self.phi_pp
        return acc, phi


def tree_forces(tree: Octree, pos: np.ndarray, mass: np.ndarray,
                theta: float, eps: float = 0.0,
                mac: str = "bonsai", quadrupole: bool = True,
                source: Octree | None = None,
                source_pos: np.ndarray | None = None,
                source_mass: np.ndarray | None = None,
                chunk: int = DEFAULT_CHUNK,
                precision: str = "float64",
                workspace: KernelWorkspace | None = None,
                backend="numpy") -> TreeWalkResult:
    """Compute gravitational forces on ``tree``'s particles.

    When ``source`` is omitted the walk is self-gravity over the local
    tree.  Passing a different ``source`` tree (with its own particle
    arrays) computes the partial forces exerted by that tree's mass on
    the local particles -- this is how LET contributions are evaluated.

    Parameters
    ----------
    tree:
        Target octree; must have moments and groups.  ``pos``/``mass``
        are the target particles in original order.
    theta, mac:
        Opening angle and MAC flavor (applied to the source tree).
    eps:
        Plummer softening length.
    quadrupole:
        Evaluate quadrupole corrections (65-flop kernel) or monopole only.
    chunk, precision, workspace:
        Upper bound on the elements of one tile, and the evaluation
        dtype (see module docstring).  The workspace grows to the
        largest tile requested, never to ``chunk`` itself.  A provided
        ``workspace`` overrides ``precision``; reuse one across calls so
        that only the first pass grows it.
    backend:
        Compute-backend name or instance executing the kernels
        (:mod:`repro.gravity.backends`); the walk, the pair lists and
        the interaction counts are backend-independent.

    Returns
    -------
    TreeWalkResult with ``acc``/``phi`` in the original particle order.
    """
    pos = np.asarray(pos, dtype=np.float64)
    if tree.group_first is None:
        raise ValueError("make_groups must run on the target tree first")
    spos = pos[tree.order]
    self_gravity = source is None
    if self_gravity:
        source, source_pos = tree, spos
        source_mass = np.asarray(mass, dtype=np.float64)[tree.order]
    elif source_pos is None or source_mass is None:
        raise ValueError("source trees need source_pos/source_mass (sorted order)")

    # LET structures arrive with r_crit baked in by the sender (and have
    # no geometric `half`); recompute only for full octrees.
    if getattr(source, "half", None) is not None:
        compute_opening_radii(source, theta, mac)
    elif source.r_crit is None:
        raise ValueError("source structure lacks opening radii")

    counts = InteractionCounts(quadrupole=quadrupole)
    fp = ForcePass(tree, spos, float(eps) * float(eps), quadrupole, chunk,
                   precision, workspace, backend)
    max_frontier = fp.add(source, np.asarray(source_pos, dtype=np.float64),
                          np.asarray(source_mass, dtype=np.float64), counts,
                          exclude_self=self_gravity)
    acc, phi = fp.finish()
    return TreeWalkResult(acc=acc, phi=phi, counts=counts,
                          n_groups=len(tree.group_first),
                          max_frontier=max_frontier)
