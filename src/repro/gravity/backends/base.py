"""Compute-backend interface for the force kernels.

The paper's performance claim rests on executing the pp/pc interaction
kernels as compiled, register-resident GPU code ("every stage on the
GPU", Sec. VI-A); this repository's hot loops are NumPy ufunc chains.
A :class:`ComputeBackend` is the seam between the two: the tree walk,
the pair lists and the interaction-count accounting never change --
only *how* a pair list is turned into accumulated (acc, phi)
contributions is delegated.

The contract every backend must honour:

- **counts are walk property, not backend property.**  ``evaluate_pc``
  / ``evaluate_pp`` must tally ``counts.n_pc`` / ``counts.n_pp`` from
  the pair lists with the exact integer arithmetic the NumPy reference
  uses (sum of per-pair expansion sizes), so interaction counts are
  bitwise-identical across backends by construction.
- **float64 NumPy is the oracle.**  A backend may fuse, reorder or
  change the precision of the *kernel arithmetic* (accumulation order
  is explicitly unspecified), but its float64 forces must stay inside
  the differential harness's theta^2-scaled envelope against the
  ``numpy`` backend (``tests/test_gravity_backends.py``).
- **accumulators are float64.**  ``accx``/``accy``/``accz``/``accp``
  are float64 views over the caller's per-particle sums in sorted
  target order; lower-precision kernels upcast on accumulation, as the
  paper's single-precision GPU kernels do.
- **nothing built at import.**  Constructing or registering a backend
  must not compile or load its runtime: that happens in ``available()``
  or ``warmup()``, so a host that cannot build it pays nothing and
  falls back to numpy.
"""

from __future__ import annotations

import numpy as np


class BackendUnavailable(RuntimeError):
    """Requested compute backend's runtime is not usable on this host.

    Raised by :func:`repro.gravity.backends.get_backend` with the
    backend's own diagnosis (no compiler, the compiler's errors, ...).
    """


class ComputeBackend:
    """One way of executing the pp/pc force kernels.

    Subclasses override the evaluation hooks; the base class provides
    the NumPy :class:`~repro.gravity.treewalk.KernelWorkspace` and a
    no-op warm-up.  ``name`` is the registry key and the value of
    ``SimulationConfig.backend``.
    """

    name: str = "?"

    # -- availability -----------------------------------------------------

    def available(self) -> bool:
        """Whether this backend can run on this host (cheap after the
        first call)."""
        return self.unavailable_reason() is None

    def unavailable_reason(self) -> str | None:
        """Why :meth:`available` is False (``None`` when available)."""
        return None

    def warmup(self, precision: str = "float64") -> None:
        """One-time preparation (building, loading a library), called by
        the drivers at construction, outside every timed region.  Must be
        idempotent.  No-op by default."""

    # -- workspaces -------------------------------------------------------

    def make_workspace(self, chunk: int, precision: str = "float64"):
        """The NumPy :class:`KernelWorkspace`: it starts empty, so a
        backend that asks it for no tiles reads only its ``precision``."""
        from ..treewalk import KernelWorkspace
        return KernelWorkspace(chunk, precision)

    # -- raw pair-batch kernels (Fig. 1 / property tests) -----------------

    def pp_kernel(self, dx, dy, dz, m, eps2: float):
        """Per-pair p-p contributions on pre-formed separations.

        Same contract as :func:`repro.gravity.kernels.pp_interactions`.
        """
        raise NotImplementedError

    def pc_kernel(self, dx, dy, dz, m, quad, eps2: float):
        """Per-pair p-c contributions (``quad=None`` = monopole branch).

        Same contract as :func:`repro.gravity.kernels.pc_interactions`.
        """
        raise NotImplementedError

    # -- fused pair-run evaluators (the hot path) -------------------------

    def evaluate_pc(self, accx, accy, accz, accp, tview, sv,
                    pc_g, pc_c, group_first, group_count,
                    eps2: float, quadrupole: bool, counts,
                    chunk: int, ws) -> None:
        """Accumulate particle-cell pair-run contributions.

        ``tview`` is the (tx, ty, tz) contiguous target columns,
        ``sv`` a :class:`~repro.gravity.treewalk.SourceView`.  Must add
        ``sum(group_count[pc_g])`` to ``counts.n_pc``.
        """
        raise NotImplementedError

    def evaluate_pp(self, accx, accy, accz, accp, tview, sv,
                    pp_g, pp_c, group_first, group_count,
                    eps2: float, counts, exclude_self: bool,
                    chunk: int, ws) -> None:
        """Accumulate particle-particle (group x leaf) contributions.

        Must add ``sum(group_count[pp_g] * body_count[pp_c])`` to
        ``counts.n_pp``.  ``exclude_self`` zeroes identical sorted
        indices (self-gravity walks).
        """
        raise NotImplementedError

    # -- dense helper -----------------------------------------------------

    def point_forces(self, targets: np.ndarray, sources: np.ndarray,
                     source_mass: np.ndarray, eps2: float
                     ) -> tuple[np.ndarray, np.ndarray]:
        """All-pairs point forces (no self-exclusion); (acc, phi) in f64."""
        raise NotImplementedError

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "available" if self.available() else "unavailable"
        return f"<{type(self).__name__} {self.name!r} ({state})>"
