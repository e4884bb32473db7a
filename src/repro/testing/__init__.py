"""Correctness harness: invariant checkers + the differential oracle.

Two complementary verification tools for the distributed pipeline:

- :mod:`repro.testing.invariants` -- checkers for the conserved
  quantities and structural guarantees of each pipeline stage
  (exchange conservation, decomposition partition/ownership, octree
  structure, LET MAC-completeness), callable from any rank mid-run;
- :mod:`repro.testing.differential` -- an oracle that runs the same
  initial conditions through the driver at one rank and at any rank
  count (optionally over a :class:`~repro.faults.FaultyWorld`)
  and asserts force agreement, anchored to direct summation.

See ``docs/TESTING.md`` for the harness guide.
"""

from .differential import (
    DifferentialReport,
    differential_force_report,
    max_rel_difference,
    parallel_forces,
    serial_forces,
)
from .invariants import (
    ConservationTotals,
    InvariantViolation,
    check_conservation,
    check_decomposition,
    check_exchange_conservation,
    check_let,
    check_octree,
    check_ownership,
    conservation_totals,
)

__all__ = [
    "InvariantViolation",
    "ConservationTotals",
    "conservation_totals",
    "check_conservation",
    "check_exchange_conservation",
    "check_decomposition",
    "check_ownership",
    "check_octree",
    "check_let",
    "DifferentialReport",
    "differential_force_report",
    "max_rel_difference",
    "parallel_forces",
    "serial_forces",
]
