"""Order statistics the benchmark reports: median, percentiles, spread."""

from __future__ import annotations

import statistics


def median(values) -> float:
    """Median of ``values``; 0.0 for an empty sample."""
    values = list(values)
    return float(statistics.median(values)) if values else 0.0


def percentile(values, share: float) -> float:
    """The ``share`` quantile (0..1) by linear interpolation.

    With few samples this reads close to the maximum; the README says
    which workloads have that few.
    """
    ordered = sorted(values)
    if not ordered:
        return 0.0
    position = share * (len(ordered) - 1)
    low = int(position)
    high = min(low + 1, len(ordered) - 1)
    return float(ordered[low] + (ordered[high] - ordered[low]) * (position - low))


def quartile_spread(values) -> float:
    """(Q3 - Q1) / median, the run-to-run spread the driver checks."""
    values = list(values)
    if len(values) < 2:
        return 0.0
    first, middle, third = statistics.quantiles(values, n=4)
    return (third - first) / middle if middle else 0.0
