"""Per-step timing breakdown mirroring the rows of Table II."""

from __future__ import annotations

import dataclasses

from ..gravity.flops import InteractionCounts

#: Ordered phase names exactly as Table II reports them.
TABLE2_PHASES = (
    "sorting",
    "domain_update",
    "tree_construction",
    "tree_properties",
    "gravity_local",
    "gravity_let",
    "non_hidden_comm",
    "other",
)

#: Phase-span name -> StepBreakdown field: the one place a measured
#: phase is assigned its Table II row.  Boundary allgather and LET
#: build/send have no row of their own and fold, with the integrator's
#: kick/drift, into "Unbalance + Other" (the paper hides them).
SPAN_TO_FIELD = {**{name: name for name in TABLE2_PHASES},
                 "boundary_exchange": "other", "let_exchange": "other"}


@dataclasses.dataclass
class StepBreakdown:
    """Wall-clock time per algorithm phase for one simulation step.

    Field names map 1:1 onto Table II rows: "Sorting SFC", "Domain
    Update", "Tree-construction", "Tree-properties", "Compute gravity
    Local-tree", "Compute gravity LETs", "Non-hidden LET comm" and
    "Unbalance + Other".
    """

    sorting: float = 0.0
    domain_update: float = 0.0
    tree_construction: float = 0.0
    tree_properties: float = 0.0
    gravity_local: float = 0.0
    gravity_let: float = 0.0
    non_hidden_comm: float = 0.0
    other: float = 0.0
    counts: InteractionCounts = dataclasses.field(default_factory=InteractionCounts)
    n_particles: int = 0

    @property
    def total(self) -> float:
        """Total wall-clock time of the step."""
        return (self.sorting + self.domain_update + self.tree_construction
                + self.tree_properties + self.gravity_local + self.gravity_let
                + self.non_hidden_comm + self.other)

    def book(self, span: str, seconds: float) -> None:
        """Add a phase span's seconds to its row (:data:`SPAN_TO_FIELD`)."""
        row = SPAN_TO_FIELD[span]
        setattr(self, row, getattr(self, row) + seconds)

    def as_dict(self) -> dict[str, float]:
        """Phase -> seconds mapping in Table II order."""
        return {name: getattr(self, name) for name in TABLE2_PHASES}

    def gpu_tflops(self) -> float:
        """Force-kernel Tflop/s (the 'GPU' performance row of Table II)."""
        t = self.gravity_local + self.gravity_let
        return self.counts.tflops(t)

    def application_tflops(self) -> float:
        """Whole-application Tflop/s (the 'Application' row of Table II)."""
        return self.counts.tflops(self.total)

    @classmethod
    def mean(cls, steps: "list[StepBreakdown]") -> "StepBreakdown":
        """Average a list of breakdowns (used over the measured window)."""
        if not steps:
            raise ValueError("no steps to average")
        out = cls()
        k = len(steps)
        for name in TABLE2_PHASES:
            setattr(out, name, sum(getattr(s, name) for s in steps) / k)
        out.counts = InteractionCounts(
            n_pp=sum(s.counts.n_pp for s in steps) // k,
            n_pc=sum(s.counts.n_pc for s in steps) // k,
            quadrupole=steps[0].counts.quadrupole)
        out.n_particles = steps[0].n_particles
        return out
