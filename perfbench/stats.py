"""Small statistics helpers shared by the benchmark's modules."""

from __future__ import annotations

import math


def quantile(sorted_values: list[float], q: float) -> float:
    """Linear-interpolated quantile of an already sorted list."""
    if not sorted_values:
        raise ValueError("quantile of no samples")
    position = q * (len(sorted_values) - 1)
    low = math.floor(position)
    high = min(low + 1, len(sorted_values) - 1)
    weight = position - low
    return sorted_values[low] * (1.0 - weight) + sorted_values[high] * weight


def median(values: list[float]) -> float:
    """Median of unsorted values."""
    return quantile(sorted(values), 0.5)


def tail_quantile(values: list[float], q: float = 0.99) -> float | None:
    """The ``q`` quantile, or None unless 10 samples lie beyond it.

    A tail percentile is only reported when it rests on at least ten
    samples above it; with fewer it is mostly one or two outliers.
    """
    if len(values) * (1.0 - q) < 10:
        return None
    return quantile(sorted(values), q)
