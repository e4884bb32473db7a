"""Batched multi-source tree walks over a concatenated cell forest.

A :class:`SourceForest` concatenates any number of LET-like structures
(the boundaries or LETs of remote ranks, Sec. III-B2) into one cell
array whose roots seed a single frontier, so every remote source is
walked in one pass instead of one traversal -- with its fixed cost and
tiny pair list -- per source: the "process them as they arrive" of the
paper is one batch per drain of arrived LETs.

Correctness rests on an ordering property of
:func:`repro.gravity.treewalk.walk_frontier`: mask selection and
``np.repeat`` preserve relative order, so a frontier seeded source-major
produces pair lists that are the per-source single-walk lists
interleaved level-major, and a stable sort on the source id recovered
from the cell index yields each source's pairs in *exactly* the order a
dedicated walk would have produced.  The tile evaluator
(:mod:`repro.gravity.treewalk`) makes that recovery from the forest's
``cell_offsets``: handed a forest's pair lists whole, it lays each
group's list out source after source in one tile and sums each source's
part by itself, in forest order -- bitwise the forces and interaction
counts of one walk and one evaluation per source
(``tests/test_forest_walk.py``, ``tests/test_gravity_tiles.py``).
"""

from __future__ import annotations

import dataclasses

import numpy as np

from .treewalk import walk_interaction_lists


@dataclasses.dataclass
class SourceForest:
    """Concatenation of LET-like source structures for one batched walk.

    Cell indices are forest-global: source ``i``'s cells are
    ``[cell_offsets[i], cell_offsets[i+1])`` and its root is
    ``cell_offsets[i]``.  ``body_first`` is pre-offset into the
    concatenated ``part_pos``/``part_mass`` arrays, so the forest
    duck-types the evaluators' source interface directly -- no index
    remapping at evaluation time.  ``first_child`` entries of leaves are
    offset garbage, but the walk never dereferences a leaf's child
    pointer.
    """

    first_child: np.ndarray
    n_children: np.ndarray
    body_first: np.ndarray
    body_count: np.ndarray
    com: np.ndarray
    mass: np.ndarray
    quad: np.ndarray
    r_crit: np.ndarray
    part_pos: np.ndarray
    part_mass: np.ndarray
    #: (n_sources + 1,) prefix of cell counts; roots are the prefix heads.
    cell_offsets: np.ndarray
    #: Originating rank of each source, in concatenation order.
    src_ranks: tuple[int, ...]

    @property
    def n_sources(self) -> int:
        return len(self.src_ranks)

    @property
    def n_cells(self) -> int:
        return int(self.cell_offsets[-1])

    @classmethod
    def concatenate(cls, sources, ranks) -> "SourceForest":
        """Build a forest from LET-like structures (one per remote rank).

        ``sources`` need ``first_child``, ``n_children``, ``body_first``,
        ``body_count``, ``com``, ``mass``, ``quad``, ``r_crit``,
        ``part_pos``, ``part_mass`` -- the :class:`~repro.parallel.lettree.LETData`
        interface shared by boundary structures and full LETs.
        """
        if len(sources) == 0:
            raise ValueError("cannot build a forest over zero sources")
        n_cells = np.array([len(s.mass) for s in sources], dtype=np.int64)
        n_parts = np.array([len(s.part_mass) for s in sources], dtype=np.int64)
        cell_offsets = np.concatenate(([0], np.cumsum(n_cells)))
        part_offsets = np.concatenate(([0], np.cumsum(n_parts)))
        return cls(
            first_child=np.concatenate(
                [s.first_child + o for s, o in zip(sources, cell_offsets)]),
            n_children=np.concatenate([s.n_children for s in sources]),
            body_first=np.concatenate(
                [s.body_first + o for s, o in zip(sources, part_offsets)]),
            body_count=np.concatenate([s.body_count for s in sources]),
            com=np.concatenate([s.com for s in sources]),
            mass=np.concatenate([s.mass for s in sources]),
            quad=np.concatenate([s.quad for s in sources]),
            r_crit=np.concatenate([s.r_crit for s in sources]),
            part_pos=np.concatenate([s.part_pos for s in sources]) if
            part_offsets[-1] else np.empty((0, 3)),
            part_mass=np.concatenate([s.part_mass for s in sources]) if
            part_offsets[-1] else np.empty(0),
            cell_offsets=cell_offsets,
            src_ranks=tuple(int(r) for r in ranks),
        )


#: The batched walk, under the name its callers know:
#: :func:`~repro.gravity.treewalk.walk_interaction_lists` seeds one
#: frontier from a forest's roots source-major (for each source in
#: forest order: every target group against that source's root), which
#: is what makes the per-source recovery exact.  Cell indices are
#: forest-global and the peak frontier is the *combined* one.
walk_forest_interaction_lists = walk_interaction_lists
