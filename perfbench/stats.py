"""Median and quartiles of a run's samples."""

from __future__ import annotations

import statistics
from typing import Dict, Sequence, Tuple


def median(values: Sequence[float]) -> float:
    if not values:
        raise ValueError("median of no values")
    return float(statistics.median(values))


def quartiles(values: Sequence[float]) -> Tuple[float, float]:
    """First and third quartile as ``statistics.quantiles(values, n=4)``
    gives them; a single value is its own quartiles."""
    if not values:
        raise ValueError("quartiles of no values")
    if len(values) == 1:
        return float(values[0]), float(values[0])
    q1, _, q3 = statistics.quantiles(values, n=4)
    return float(q1), float(q3)


def summary(values: Sequence[float]) -> Dict[str, float]:
    """``{"n", "median", "q1", "q3"}`` of the samples."""
    q1, q3 = quartiles(values)
    return {"n": len(values), "median": median(values), "q1": q1, "q3": q3}


def relative_spread(values: Sequence[float]) -> float:
    """Distance between the quartiles as a share of the median."""
    q1, q3 = quartiles(values)
    return (q3 - q1) / median(values)
