"""Weighted domain cuts with the paper's 30% particle-count cap.

The decomposer balances the *measured tree-walk cost* (flops) across
domains "with the restriction that a process cannot have 30% more than
the average number of particles per GPU" (Sec. III-B1).  The cut runs on
a sorted sample of keys where each sample carries a cost weight and a
count weight; a greedy sweep emits a boundary whenever the accumulated
cost reaches the per-domain target or the count cap would be exceeded.
"""

from __future__ import annotations

import numpy as np


def cut_weighted_with_cap(keys: np.ndarray, cost: np.ndarray, n_domains: int,
                          cap_ratio: float = 1.3) -> np.ndarray:
    """Cut sorted sample ``keys`` into ``n_domains`` contiguous pieces.

    Parameters
    ----------
    keys:
        Sorted sample keys (uint64).  Each sample also represents one
        unit of particle count.
    cost:
        Non-negative cost weight per sample (e.g. tree-walk flops).
    n_domains:
        Number of domains p.
    cap_ratio:
        Maximum allowed count per domain, relative to the mean
        (paper: 1.3).

    Returns
    -------
    (n_domains + 1,) uint64 boundary keys: domain d owns keys in
    ``[boundaries[d], boundaries[d+1])``; the first entry is 0 and the
    last is the maximum key value.

    Cost guarantee (uncapped): a cut goes before the sample that crosses
    the running target, and the shortfall (< c_max) is re-spread over
    the domains still to cut, so domain ``i`` (0-based) costs at most
    ``total/p + c_max * sum_{k=1..i} 1/(p-k)`` -- the last domain
    ``total/p + c_max * H_{p-1}`` -- or ``c_max`` where one sample is a
    domain by itself (``tests/harness/test_loadbalance_properties.py``).
    """
    keys = np.asarray(keys, dtype=np.uint64)
    cost = np.asarray(cost, dtype=np.float64)
    if len(keys) != len(cost):
        raise ValueError("keys and cost must align")
    if n_domains < 1:
        raise ValueError("n_domains must be >= 1")
    n = len(keys)
    boundaries = np.empty(n_domains + 1, dtype=np.uint64)
    boundaries[0] = 0
    boundaries[-1] = np.uint64(0xFFFFFFFFFFFFFFFF)
    if n_domains == 1:
        return boundaries
    if n == 0:
        # Degenerate: no information; split key space uniformly.  The
        # multiply is pinned to uint64 explicitly: d * span cannot wrap
        # because span <= KEY_MAX // n_domains, so (n_domains-1) * span
        # < KEY_MAX, and the cast keeps numpy from promoting through
        # float64 (which would round large n_domains boundaries).
        span = np.uint64(int(boundaries[-1]) // n_domains)
        boundaries[1:-1] = np.arange(1, n_domains, dtype=np.uint64) * span
        return boundaries

    total_cost = float(cost.sum())
    if total_cost <= 0.0:
        cost = np.ones(n)
        total_cost = float(n)
    cap = int(np.ceil(cap_ratio * n / n_domains)) if np.isfinite(cap_ratio) else n

    cum_cost = np.cumsum(cost)
    idx = 0
    for d in range(1, n_domains):
        remaining_domains = n_domains - d + 1
        # Cost target: split what is left evenly over remaining domains.
        cost_left = total_cost - (cum_cost[idx - 1] if idx > 0 else 0.0)
        target = (cum_cost[idx - 1] if idx > 0 else 0.0) + cost_left / remaining_domains
        j = int(np.searchsorted(cum_cost, target, side="left"))
        # Count cap: at most `cap` samples in this domain...
        j = min(j, idx + cap - 1)
        # ...but leave enough samples for the remaining domains to stay
        # under their caps too (feasibility of the tail).
        min_here = n - cap * (remaining_domains - 1)
        j = max(j, min_here, idx)
        if n >= n_domains:
            # A single sample whose cost exceeds the whole per-domain
            # target (extreme measured skew, e.g. a fault-slowed rank)
            # must not collapse a domain to zero width: every domain
            # keeps at least one sample when enough samples exist.
            j = max(j, idx + 1)
            j = min(j, n - (n_domains - d))
        j = min(j, n - 1)
        boundaries[d] = keys[j]
        idx = j
    # Boundaries must be non-decreasing (duplicate keys can violate this
    # after the cap clamps; enforce).
    boundaries[1:-1] = np.maximum.accumulate(boundaries[1:-1])
    return boundaries


def domain_counts(keys: np.ndarray, boundaries: np.ndarray) -> np.ndarray:
    """Histogram of keys per domain given boundary keys."""
    keys = np.asarray(keys, dtype=np.uint64)
    edges = np.asarray(boundaries, dtype=np.uint64)
    dom = np.searchsorted(edges[1:-1], keys, side="right")
    return np.bincount(dom, minlength=len(boundaries) - 1)
