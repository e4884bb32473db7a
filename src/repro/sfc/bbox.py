"""Bounding boxes and the mapping between positions and SFC keys.

The paper computes a *global* bounding box (each GPU computes a local box,
the CPUs reduce them) whose geometry maps particle coordinates onto the
integer grid underlying the Peano-Hilbert keys.  :class:`BoundingBox`
captures exactly that mapping, and is deliberately cubic so that octree
cells are cubes at every level.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from .morton import KEY_BITS_PER_DIM, morton_decode, morton_encode
from .hilbert import hilbert_decode, hilbert_encode


def _first_nonfinite_row(a: np.ndarray) -> int | None:
    """Index of the first row of ``a`` holding a NaN or an infinity."""
    bad = np.flatnonzero(~np.isfinite(a).all(axis=1))
    return int(bad[0]) if len(bad) else None


@dataclasses.dataclass(frozen=True)
class BoundingBox:
    """A cubic axis-aligned box mapping space onto the 2^21 key grid.

    Attributes
    ----------
    origin:
        Lower corner of the cube, shape (3,).
    size:
        Edge length of the cube (single float; the box is a cube).
    """

    origin: np.ndarray
    size: float

    @classmethod
    def from_positions(cls, pos: np.ndarray, pad: float = 1.0e-3) -> "BoundingBox":
        """Build the smallest padded cube containing all positions.

        ``pad`` is a relative enlargement that keeps particles strictly
        inside the box so grid coordinates never saturate at the edge.
        """
        pos = np.asarray(pos, dtype=np.float64)
        if pos.ndim != 2 or pos.shape[1] != 3:
            raise ValueError(f"positions must have shape (N, 3), got {pos.shape}")
        if len(pos) == 0:
            raise ValueError("cannot bound zero particles")
        # Per column: the strided 1-D reductions run ~7x faster than
        # min/max(axis=0) over a C-ordered (N, 3) array, to the same values.
        lo = np.array([pos[:, k].min() for k in range(3)])
        hi = np.array([pos[:, k].max() for k in range(3)])
        if not np.isfinite([lo, hi]).all():
            i = _first_nonfinite_row(pos)
            raise ValueError(f"non-finite position at particle index {i}: {pos[i]}")
        center = 0.5 * (lo + hi)
        size = float((hi - lo).max())
        if size == 0.0:
            size = 1.0
        size *= 1.0 + pad
        origin = center - 0.5 * size
        return cls(origin=origin, size=size)

    @classmethod
    def merge(cls, boxes: "list[BoundingBox]", pad: float = 0.0) -> "BoundingBox":
        """Combine per-rank local boxes into the global cube (the CPU
        reduction step of Sec. III-B1)."""
        if not boxes:
            raise ValueError("no boxes to merge")
        lo = np.min([b.origin for b in boxes], axis=0)
        hi = np.max([b.origin + b.size for b in boxes], axis=0)
        center = 0.5 * (lo + hi)
        size = float((hi - lo).max()) * (1.0 + pad)
        return cls(origin=center - 0.5 * size, size=size)

    @property
    def cell_size(self) -> float:
        """Grid spacing of the finest (level-21) cells."""
        return self.size / float(1 << KEY_BITS_PER_DIM)

    def grid_coordinates(self, pos: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Map positions to integer grid coordinates, clipped into range.

        A NaN or infinite position has no cell; it raises ``ValueError``
        naming the first such particle rather than becoming a key.
        """
        pos = np.asarray(pos, dtype=np.float64)
        scaled = (pos - self.origin) / self.cell_size
        # One reduction finds "any non-finite"; the rows are searched only
        # then (finite rows whose sum overflowed are let through).
        with np.errstate(invalid="ignore", over="ignore"):
            total = scaled.sum()
        if not np.isfinite(total):
            i = _first_nonfinite_row(scaled)
            if i is not None:
                raise ValueError(f"non-finite position at particle index {i}: "
                                 f"{pos[i]} has no grid cell in {self}")
        nmax = (1 << KEY_BITS_PER_DIM) - 1
        ijk = np.clip(np.floor(scaled), 0, nmax).astype(np.uint64)
        return ijk[:, 0], ijk[:, 1], ijk[:, 2]

    def morton_keys(self, pos: np.ndarray) -> np.ndarray:
        """Morton keys of positions inside this box."""
        return morton_encode(*self.grid_coordinates(pos))

    def hilbert_keys(self, pos: np.ndarray) -> np.ndarray:
        """Peano-Hilbert keys of positions inside this box."""
        return hilbert_encode(*self.grid_coordinates(pos))

    def keys(self, pos: np.ndarray, curve: str = "hilbert") -> np.ndarray:
        """Keys of positions along the requested curve ('hilbert'/'morton')."""
        if curve == "hilbert":
            return self.hilbert_keys(pos)
        if curve == "morton":
            return self.morton_keys(pos)
        raise ValueError(f"unknown curve {curve!r}")


def keys_for_positions(pos: np.ndarray, curve: str = "hilbert",
                       box: BoundingBox | None = None) -> tuple[np.ndarray, BoundingBox]:
    """Convenience wrapper returning (keys, box) for a particle set."""
    if box is None:
        box = BoundingBox.from_positions(pos)
    return box.keys(pos, curve), box


def cell_geometry(cell_key: np.ndarray, cell_level: np.ndarray,
                  box: BoundingBox, curve: str = "hilbert") -> tuple[np.ndarray, np.ndarray]:
    """Geometric center and half-size of octree cells.

    A cell at level L is identified by the leading ``3*L`` bits of its
    SFC key; ``cell_key`` holds that prefix shifted to full depth (i.e.
    the key of the first grid point the curve visits inside the cell) and
    ``cell_level`` the depth (0 = root).  Both Morton and Hilbert prefixes
    denote genuine octree octants -- the Hilbert curve fully covers each
    octant before leaving it -- but for Hilbert keys the octant corner is
    recovered by decoding the first visited point and masking off the low
    ``21 - L`` coordinate bits.

    Returns
    -------
    centers : (n, 3) float64
    half : (n,) float64 -- half of the cell edge length.
    """
    cell_key = np.asarray(cell_key, dtype=np.uint64)
    cell_level = np.asarray(cell_level)
    if curve == "hilbert":
        ix, iy, iz = hilbert_decode(cell_key)
    elif curve == "morton":
        ix, iy, iz = morton_decode(cell_key)
    else:
        raise ValueError(f"unknown curve {curve!r}")
    # Mask off sub-cell bits to land on the octant's lower corner.
    shift = (KEY_BITS_PER_DIM - cell_level).astype(np.uint64)
    mask = ~((np.uint64(1) << shift) - np.uint64(1))
    corner_idx = np.stack([ix & mask, iy & mask, iz & mask], axis=1)
    corner = corner_idx.astype(np.float64) * box.cell_size + box.origin
    side = box.size / (1 << cell_level).astype(np.float64)
    half = 0.5 * side
    centers = corner + half[:, None]
    return centers, half
