"""Cross-step reuse of the SFC sort permutation.

Particles barely move between timesteps, so the stable argsort of their
space-filling-curve keys -- paid from scratch in every "Sorting SFC" and
"Tree-construction" phase -- is almost the same permutation step after
step.  A :class:`SortCache` remembers the last permutation and, instead
of a cold sort, verifies it in O(n) (keys permuted by the cached order
are usually still non-decreasing) or repairs it with an adaptive stable
sort over the nearly-sorted permuted keys, which numpy's timsort handles
in near-linear time.  On this machine the verify path is ~90x cheaper
than a cold argsort at 40k keys.

Tie-breaking caveat: when distinct particles share a key (coincident at
key resolution), the repaired permutation may order them differently
than a cold stable sort would.  Tree topology, groups and interaction
counts depend only on the *sorted key sequence*, so they are unaffected;
forces on such twins can differ within the MAC tolerance.  Runs with a
fixed configuration remain deterministic either way.

A cached permutation is only meaningful against the particle *layout*
that produced it: after a particle exchange the local array is a
different set in a different order, and silently reusing the old
permutation is exactly the tie-breaking hazard above.  ``order_for``
therefore takes an optional ``epoch`` generation tag -- drivers bump it
whenever the layout changes (rebalance or migration) and the cache goes
cold instead of repairing across the relayout.
"""

from __future__ import annotations

import numpy as np

#: Outcomes of :meth:`SortCache.order_for`, cheapest first.
SORT_MODES = ("identity", "reuse", "repair", "cold")


def _is_sorted(keys: np.ndarray) -> bool:
    return len(keys) < 2 or bool(np.all(keys[:-1] <= keys[1:]))


class SortCache:
    """Remembers the previous step's sort permutation and reuses it.

    One cache per sort site: the driver keeps one for the pre-exchange
    sort and one for the post-exchange tree build.  ``last_mode``
    reports how the latest permutation was obtained
    (:data:`SORT_MODES`) for span attributes and metrics.
    """

    __slots__ = ("_order", "last_mode", "_epoch")

    def __init__(self) -> None:
        self._order: np.ndarray | None = None
        self.last_mode: str | None = None
        self._epoch: int | None = None

    def order_for(self, keys: np.ndarray,
                  epoch: int | None = None) -> np.ndarray:
        """A permutation that stable-sorts ``keys``, reusing prior work.

        - ``identity``: keys already non-decreasing (the returned arange
          lets callers skip the reorder copy entirely);
        - ``reuse``: the cached permutation still sorts the new keys;
        - ``repair``: cached permutation composed with an adaptive sort
          of the (nearly sorted) permuted keys;
        - ``cold``: no usable cache; plain stable argsort.

        ``epoch`` is an optional layout generation tag: a call with a
        different epoch than the cached permutation's discards the cache
        first, so permutations never survive a particle relayout.
        """
        if epoch is not None and epoch != self._epoch:
            self._order = None
            self._epoch = epoch
        n = len(keys)
        cached = self._order
        if cached is not None and len(cached) == n:
            permuted = keys[cached]
            if _is_sorted(permuted):
                self.last_mode = "reuse"
                return cached
            order = cached[np.argsort(permuted, kind="stable")]
            self.last_mode = "repair"
        elif _is_sorted(keys):
            order = np.arange(n, dtype=np.int64)
            self.last_mode = "identity"
        else:
            order = np.argsort(keys, kind="stable").astype(np.int64)
            self.last_mode = "cold"
        self._order = order
        return order

    def invalidate(self) -> None:
        """Drop the cached permutation (e.g. after an exchange)."""
        self._order = None
        self.last_mode = None
        self._epoch = None
