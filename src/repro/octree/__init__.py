"""Sparse octree construction and multipole moments.

Reproduces the data structures of the Bonsai single-GPU pipeline
(Sec. III-A): level-by-level tree construction over SFC-sorted particles
with a leaf capacity of 16, monopole + quadrupole moments, per-cell
opening radii for the multipole acceptance criterion, and particle
*groups* (the warp-sized walk granularity, NCRIT).
"""

from .tree import Octree
from .build import build_octree
from .moments import compute_moments
from .properties import compute_opening_radii
from .groups import make_groups

__all__ = [
    "Octree",
    "build_octree",
    "compute_moments",
    "compute_opening_radii",
    "make_groups",
]
