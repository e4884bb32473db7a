"""Domain decomposition state and the per-step domain update.

A :class:`DomainDecomposition` is the list of p+1 Peano-Hilbert boundary
keys produced by the sampling method; rank d owns the key interval
``[boundaries[d], boundaries[d+1])``.  Because the boundaries are SFC
keys, every domain is a union of octree cells and every local tree is a
non-overlapping branch of the hypothetical global octree (Sec. III-B1) --
the property that lets LET communication hide behind computation.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from ..simmpi import SimComm
from .loadbalance import domain_counts
from .sampling import hierarchical_sample_boundaries, serial_sample_boundaries


class EmptyDomainError(ValueError):
    """A rank holds no particles where the pipeline needs at least one.

    Raised where a driver first sees the empty local set (N < P, or a
    domain emptied by an exchange), naming ``rank``, ``step`` and
    ``phase``; empty domains are not supported.
    """

    def __init__(self, rank: int, step: int | None, phase: str):
        self.rank, self.step, self.phase = rank, step, phase
        super().__init__(f"rank {rank} holds no particles at step {step}, "
                         f"phase {phase!r}: empty domains are not supported")

    def __reduce__(self):
        # Crosses rank-process boundaries; replaying ``args`` (the
        # message) into __init__ would lose the structured fields.
        return (EmptyDomainError, (self.rank, self.step, self.phase))


@dataclasses.dataclass(frozen=True)
class DomainDecomposition:
    """Immutable snapshot of the p-way key-space partition."""

    boundaries: np.ndarray   # (p + 1,) uint64

    @property
    def n_domains(self) -> int:
        """Number of domains p."""
        return len(self.boundaries) - 1

    def rank_of_keys(self, keys: np.ndarray) -> np.ndarray:
        """Owning rank for each key."""
        keys = np.asarray(keys, dtype=np.uint64)
        return np.searchsorted(self.boundaries[1:-1], keys, side="right")

    def counts(self, keys: np.ndarray) -> np.ndarray:
        """Per-domain key counts for a local key array."""
        return domain_counts(keys, self.boundaries)

    def key_range(self, rank: int) -> tuple[int, int]:
        """[lo, hi) key interval of one domain."""
        return int(self.boundaries[rank]), int(self.boundaries[rank + 1])


def domain_update(comm: SimComm, keys_sorted: np.ndarray,
                  weights: np.ndarray | None = None,
                  method: str = "hierarchical",
                  rate1: float = 0.002, rate2: float = 0.02,
                  cap_ratio: float = 1.3) -> DomainDecomposition:
    """Recompute the decomposition from the current particle keys.

    This is the "Domain Update" row of Table II: sampling, gathering,
    cutting and broadcasting new boundaries.

    Parameters
    ----------
    keys_sorted:
        This rank's particle keys, sorted ascending.
    weights:
        Optional per-particle cost estimates (tree-walk flops from the
        previous step); evens out the compute load.
    method:
        ``"hierarchical"`` (the paper's px x py scheme) or ``"serial"``
        (the original single-DD-process method, kept for the ablation).
    """
    if method == "hierarchical":
        b = hierarchical_sample_boundaries(comm, keys_sorted, weights,
                                           comm.size, rate1, rate2, cap_ratio)
    elif method == "serial":
        b = serial_sample_boundaries(comm, keys_sorted, weights, comm.size,
                                     rate2, cap_ratio)
    else:
        raise ValueError(f"unknown decomposition method {method!r}")
    return DomainDecomposition(boundaries=b)
