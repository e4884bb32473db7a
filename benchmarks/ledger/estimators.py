"""Estimators shared by the runner, the A/A harness and the comparer."""

from __future__ import annotations

import statistics


def fastest(durations) -> float:
    """The fastest of a run's step durations: what ``step_s`` reports.

    On the shared hosts this benchmark runs on, a step never sees less
    than the uncontended time and usually sees more (NOISE.md,
    "Estimators"): the minimum is what is left when contention is taken
    away.  What it cannot see -- a change that slows only some steps --
    is what ``cheapest_window`` is for.
    """
    d = [float(x) for x in durations]
    if not d:
        raise ValueError("no durations")
    return min(d)


def cheapest_window(durations, width: int) -> float:
    """Mean duration over the cheapest run of ``width`` consecutive steps:
    what ``cpu_step_s`` reports.

    Every step inside the window counts, so a cost paid on some steps
    only (every other step a re-cut, every fourth a cold fallback) is in
    the sum as long as it recurs within ``width`` steps; sliding the
    window over the run and keeping the cheapest position drops the
    stretches the host slowed down, as the minimum does for one step.
    With fewer than ``width`` steps the window is the whole run.
    """
    d = [float(x) for x in durations]
    if not d:
        raise ValueError("no durations")
    width = min(width, len(d))
    sums = [sum(d[i:i + width]) for i in range(len(d) - width + 1)]
    return min(sums) / width


def quartiles(values) -> tuple[float, float, float]:
    """(q1, median, q3) as ``statistics.quantiles(values, n=4)`` gives them."""
    q1, q2, q3 = statistics.quantiles([float(v) for v in values], n=4)
    return q1, q2, q3


def iqr_spread(values) -> float:
    """Inter-quartile distance as a share of the median (the gate's spread)."""
    q1, q2, q3 = quartiles(values)
    return (q3 - q1) / q2


def range_spread(values) -> float:
    """(max - min) / median."""
    v = [float(x) for x in values]
    return (max(v) - min(v)) / statistics.median(v)
