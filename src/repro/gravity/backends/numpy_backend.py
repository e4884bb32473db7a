"""NumPy reference backend: the float64 oracle and the default.

Delegates straight to the group-tile evaluators in
:mod:`repro.gravity.treewalk` (the workspace ``*_ws`` kernels on one
dense tile per group) and the allocating kernels in
:mod:`repro.gravity.kernels` -- no arithmetic lives here, so selecting
``backend="numpy"`` is byte-for-byte calling them directly (forces,
counts, traces).  Other backends are validated against this one.

``NumpyBackend`` accepts a ``name`` override so tests can register the
reference implementation under a second name and exercise the full
driver/telemetry threading of a non-default backend without needing
numba or a GPU in the container.
"""

from __future__ import annotations

import numpy as np

from .base import ComputeBackend


class NumpyBackend(ComputeBackend):
    """The ``_ws`` kernels on group tiles: the float64 reference."""

    def __init__(self, name: str = "numpy"):
        self.name = name

    # -- raw pair-batch kernels -------------------------------------------

    def pp_kernel(self, dx, dy, dz, m, eps2):
        from ..kernels import pp_interactions
        return pp_interactions(dx, dy, dz, m, eps2)

    def pc_kernel(self, dx, dy, dz, m, quad, eps2):
        from ..kernels import pc_interactions
        return pc_interactions(dx, dy, dz, m, quad, eps2)

    # -- fused pair-run evaluators ----------------------------------------

    def evaluate_pc(self, accx, accy, accz, accp, tview, sv,
                    pc_g, pc_c, group_first, group_count,
                    eps2, quadrupole, counts, chunk, ws) -> None:
        from ..treewalk import _evaluate_pc_tiles
        _evaluate_pc_tiles(accx, accy, accz, accp, tview, sv,
                             pc_g, pc_c, group_first, group_count,
                             eps2, quadrupole, counts, chunk, ws)

    def evaluate_pp(self, accx, accy, accz, accp, tview, sv,
                    pp_g, pp_c, group_first, group_count,
                    eps2, counts, exclude_self, chunk, ws) -> None:
        from ..treewalk import _evaluate_pp_tiles
        _evaluate_pp_tiles(accx, accy, accz, accp, tview, sv,
                             pp_g, pp_c, group_first, group_count,
                             eps2, counts, exclude_self, chunk, ws)

    # -- dense helper -----------------------------------------------------

    def point_forces(self, targets, sources, source_mass, eps2):
        targets = np.asarray(targets, dtype=np.float64)
        sources = np.asarray(sources, dtype=np.float64)
        source_mass = np.asarray(source_mass, dtype=np.float64)
        acc = np.zeros((len(targets), 3))
        phi = np.zeros(len(targets))
        # Chunk over targets to bound the (nt, ns) temporary.
        chunk = max(1, int(4.0e7 // max(len(sources), 1)))
        # Coincident target/source at eps = 0 yields inf (the helper does
        # no self-exclusion); keep that usage warning-clean like the pp
        # kernel does.
        with np.errstate(divide="ignore", invalid="ignore"):
            for s in range(0, len(targets), chunk):
                t = targets[s:s + chunk]
                d = sources[None, :, :] - t[:, None, :]
                r2 = np.einsum("ijk,ijk->ij", d, d) + eps2
                rinv = 1.0 / np.sqrt(r2)
                mrinv = source_mass[None, :] * rinv
                mrinv3 = mrinv * rinv * rinv
                acc[s:s + chunk] = np.einsum("ij,ijk->ik", mrinv3, d)
                phi[s:s + chunk] = -mrinv.sum(axis=1)
        return acc, phi
