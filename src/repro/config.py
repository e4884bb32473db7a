"""Simulation configuration, identical on every rank of a run."""

from __future__ import annotations

import dataclasses

from .constants import PAPER_NLEAF, PAPER_THETA
from .gravity.treewalk import DEFAULT_CHUNK, PRECISIONS

#: LET drain orderings for the distributed force phase: rank order
#: (bitwise reproducible) or arrival order.
LET_DRAIN_MODES = ("incremental", "opportunistic")


@dataclasses.dataclass
class SimulationConfig:
    """Parameters of a tree-code simulation.

    Defaults follow the paper's production configuration (Sec. IV, VI):
    opening angle theta = 0.4, leaf capacity 16, Peano-Hilbert ordering,
    quadrupole corrections on, the Bonsai MAC.
    """

    theta: float = PAPER_THETA
    softening: float = 0.01          # internal units (kpc); paper: 1e-3
    dt: float = 0.25                 # internal time units
    nleaf: int = PAPER_NLEAF
    ncrit: int = 64
    mac: str = "bonsai"              # "bonsai" or "bh"
    curve: str = "hilbert"           # "hilbert" or "morton"
    quadrupole: bool = True
    force_method: str = "tree"       # "tree" or "direct" (O(N^2) oracle)

    # --- Force pipeline knobs --------------------------------------------
    #: Elements per (group x list) evaluation tile (cache blocking of the
    #: interaction kernels): a group of m particles takes its list
    #: chunk // m entries at a time.
    chunk: int = DEFAULT_CHUNK
    #: Kernel evaluation dtype: "float64", or "float32" (f32 kernels with
    #: f64 accumulators; bounded by the differential oracle).
    precision: str = "float64"
    #: Compute backend executing the interaction kernels: "numpy" (the
    #: bitwise float64 reference) or "numba" (fused JIT kernels, optional
    #: dependency) -- or any name registered via
    #: :func:`repro.gravity.backends.register_backend`.  Walks and
    #: interaction counts are backend-independent; see
    #: docs/PERFORMANCE.md §6.
    backend: str = "numpy"
    #: LET drain ordering (:data:`LET_DRAIN_MODES`): "incremental" walks
    #: the boundary batch while LETs are in flight, then takes the LETs
    #: in rank order -- overlapped *and* bitwise reproducible run to run
    #: and across transports; "opportunistic" takes whichever LET has
    #: arrived, so float64 sums vary in the last bits with arrival order.
    let_drain: str = "incremental"

    # --- Execution substrate --------------------------------------------
    #: SimMPI transport for parallel runs: "threads" (in-process,
    #: deterministic, GIL-bound), "process" (forked ranks + shared
    #: memory, true multi-core) or "mpi4py" (real MPI under mpiexec).
    #: See :mod:`repro.simmpi.transport` and docs/TRANSPORTS.md.
    transport: str = "threads"
    #: Process-transport watchdog: seconds between noticing a worker
    #: died silently and declaring it failed without a report (booked
    #: as the ``watchdog_grace_seconds`` gauge; see
    #: docs/OBSERVABILITY.md section 13).  Ignored by other transports.
    watchdog_grace: float = 1.0

    def __post_init__(self) -> None:
        if self.force_method not in ("tree", "direct"):
            raise ValueError(f"unknown force_method {self.force_method!r}")
        if self.theta <= 0.0:
            raise ValueError("theta must be positive")
        if self.softening < 0.0:
            raise ValueError("softening must be non-negative")
        if self.dt <= 0.0:
            raise ValueError("dt must be positive")
        if self.mac not in ("bonsai", "bh"):
            raise ValueError(f"unknown MAC {self.mac!r}")
        if self.curve not in ("hilbert", "morton"):
            raise ValueError(f"unknown curve {self.curve!r}")
        if self.chunk < 1:
            raise ValueError("chunk must be >= 1")
        if self.precision not in PRECISIONS:
            raise ValueError(f"unknown precision {self.precision!r}")
        from .gravity.backends import registered_backends
        if self.backend not in registered_backends():
            raise ValueError(f"unknown backend {self.backend!r}; "
                             f"registered: {registered_backends()}")
        if self.let_drain not in LET_DRAIN_MODES:
            raise ValueError(f"unknown let_drain {self.let_drain!r}; "
                             f"expected one of {LET_DRAIN_MODES}")
        from .simmpi.transport import TRANSPORTS
        if self.transport not in TRANSPORTS:
            raise ValueError(f"unknown transport {self.transport!r}; "
                             f"expected one of {TRANSPORTS}")
        if self.watchdog_grace <= 0.0:
            raise ValueError("watchdog_grace must be positive")
