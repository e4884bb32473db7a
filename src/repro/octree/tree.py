"""The :class:`Octree` struct-of-arrays container."""

from __future__ import annotations

import dataclasses

import numpy as np

from ..sfc import BoundingBox


@dataclasses.dataclass
class Octree:
    """A linear (array-based) sparse octree over SFC-sorted particles.

    Cells are stored level-contiguously: all cells of level L form a
    contiguous index range, children of one parent are adjacent, and the
    root is cell 0.  Particle ranges refer to the *sorted* particle order
    (``order`` maps sorted index -> original index).

    Topology arrays (length = n_cells):

    - ``cell_key``     -- full-depth SFC key of the curve's entry point.
    - ``cell_level``   -- depth, root = 0.
    - ``cell_parent``  -- parent cell index (-1 for root).
    - ``first_child``  -- index of first child (-1 for leaves).
    - ``n_children``   -- number of children (0 for leaves).
    - ``body_first``   -- first particle (sorted order) in the cell.
    - ``body_count``   -- number of particles in the cell.

    Geometry / moments (filled by :func:`compute_moments` and
    :func:`compute_opening_radii`):

    - ``center``/``half`` -- geometric cube center and half edge.
    - ``mass``/``com``    -- monopole: total mass and center of mass.
    - ``quad``            -- (n, 6) second moments about the COM, packed
      as (xx, yy, zz, xy, xz, yz); the force kernel's ``Q``.
    - ``bmin``/``bmax``   -- tight AABB of the cell's particles.
    - ``r_crit``          -- MAC opening radius (cells closer than this
      to a target must be opened).
    """

    # topology
    cell_key: np.ndarray
    cell_level: np.ndarray
    cell_parent: np.ndarray
    first_child: np.ndarray
    n_children: np.ndarray
    body_first: np.ndarray
    body_count: np.ndarray

    # particle ordering
    order: np.ndarray          # sorted index -> original particle index
    keys: np.ndarray           # SFC keys in sorted order
    box: BoundingBox
    curve: str = "hilbert"
    nleaf: int = 16

    # geometry + moments (optional until computed)
    center: np.ndarray | None = None
    half: np.ndarray | None = None
    mass: np.ndarray | None = None
    com: np.ndarray | None = None
    quad: np.ndarray | None = None
    bmin: np.ndarray | None = None
    bmax: np.ndarray | None = None
    r_crit: np.ndarray | None = None

    # walk granularity (optional, see groups.py)
    group_first: np.ndarray | None = None   # first sorted particle per group
    group_count: np.ndarray | None = None

    @property
    def n_cells(self) -> int:
        """Number of cells."""
        return len(self.cell_key)

    @property
    def n_bodies(self) -> int:
        """Number of particles indexed by the tree."""
        return len(self.order)

    @property
    def n_levels(self) -> int:
        """Depth of the tree (max level + 1)."""
        return int(self.cell_level.max()) + 1 if self.n_cells else 0

    @property
    def is_leaf(self) -> np.ndarray:
        """Boolean mask of leaf cells."""
        return self.n_children == 0

    def leaf_cells(self) -> np.ndarray:
        """Indices of leaf cells."""
        return np.flatnonzero(self.is_leaf)

    def children_of(self, cell: int) -> np.ndarray:
        """Child cell indices of one cell."""
        f = int(self.first_child[cell])
        n = int(self.n_children[cell])
        if n == 0:
            return np.empty(0, dtype=np.int64)
        return np.arange(f, f + n, dtype=np.int64)

    def bodies_of(self, cell: int) -> np.ndarray:
        """Original particle indices contained in one cell."""
        f = int(self.body_first[cell])
        c = int(self.body_count[cell])
        return self.order[f:f + c]

    def validate(self) -> None:
        """Check structural invariants; raises AssertionError on failure."""
        assert self.n_cells >= 1
        assert self.body_count[0] == self.n_bodies, "root must hold all bodies"
        leaves = self.leaf_cells()
        # Leaves partition the particle range.
        starts = np.sort(self.body_first[leaves])
        counts = self.body_count[leaves][np.argsort(self.body_first[leaves], kind="stable")]
        assert starts[0] == 0
        assert np.all(starts[1:] == starts[:-1] + counts[:-1])
        assert starts[-1] + counts[-1] == self.n_bodies
        # Children ranges tile their parent's range.
        internal = np.flatnonzero(~self.is_leaf)
        for c in internal[: min(len(internal), 4096)]:
            ch = self.children_of(int(c))
            assert self.body_first[ch[0]] == self.body_first[c]
            assert self.body_count[ch].sum() == self.body_count[c]
            assert np.all(self.cell_parent[ch] == c)
            assert np.all(self.cell_level[ch] == self.cell_level[c] + 1)
