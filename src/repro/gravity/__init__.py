"""Gravitational force evaluation.

Implements the paper's force kernels (Sec. VI-A, Eqs. 1-2): the 23-flop
particle-particle kernel and the 65-flop particle-cell kernel with
quadrupole corrections, a direct O(N^2) reference solver, and the
group-centric Barnes-Hut tree walk with interaction-count accounting
identical to Table II's "Particle-Particle" and "Particle-Cell" rows.

Kernel *execution* is pluggable: :mod:`repro.gravity.backends` registers
compute backends (C kernels built with the host's ``cc`` / the numpy
oracle) selected via ``SimulationConfig.backend``; walks and counts are
backend-free.
"""

from .backends import (
    BackendUnavailable,
    ComputeBackend,
    available_backends,
    get_backend,
    register_backend,
    registered_backends,
)
from .flops import (
    FLOPS_PER_PC,
    FLOPS_PER_PP,
    FLOPS_PER_PP_LEGACY,
    InteractionCounts,
)
from .kernels import pp_interactions, pc_interactions
from .direct import direct_forces
from .treewalk import (
    DEFAULT_CHUNK,
    PRECISIONS,
    ForcePass,
    KernelWorkspace,
    SourceView,
    TreeWalkResult,
    tree_forces,
    walk_frontier,
    walk_interaction_lists,
)
from .forest import SourceForest, walk_forest_interaction_lists

__all__ = [
    "FLOPS_PER_PP",
    "FLOPS_PER_PC",
    "FLOPS_PER_PP_LEGACY",
    "InteractionCounts",
    "pp_interactions",
    "pc_interactions",
    "direct_forces",
    "tree_forces",
    "walk_frontier",
    "walk_interaction_lists",
    "TreeWalkResult",
    "ForcePass",
    "KernelWorkspace",
    "SourceView",
    "DEFAULT_CHUNK",
    "PRECISIONS",
    "SourceForest",
    "walk_forest_interaction_lists",
    "BackendUnavailable",
    "ComputeBackend",
    "available_backends",
    "get_backend",
    "register_backend",
    "registered_backends",
]
