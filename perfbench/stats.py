"""Percentiles, the tail rule and peak memory, shared by the workloads."""

from __future__ import annotations

import math
import resource

#: the conventional tail percentiles, highest first; the first that leaves
#: at least ``TAIL_BEYOND`` samples above it is reported
TAIL_CANDIDATES = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)
TAIL_BEYOND = 10


def percentile(values, q: float) -> float:
    """Nearest-rank percentile ``q`` (0–100) of ``values``."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of no samples")
    index = max(0, min(len(ordered) - 1,
                       math.ceil(q / 100.0 * len(ordered)) - 1))
    return ordered[index]


def tail(values) -> tuple[float, float, int]:
    """``(value, percentile, samples beyond it)`` for the highest
    percentile in ``TAIL_CANDIDATES`` with ≥ ``TAIL_BEYOND`` samples above."""
    n = len(values)
    for q in TAIL_CANDIDATES:
        beyond = n - math.ceil(q / 100.0 * n)
        if beyond >= TAIL_BEYOND:
            return percentile(values, q), q, beyond
    raise ValueError(f"{n} samples are too few for a tail percentile")


def peak_rss_mb() -> float:
    """Peak resident memory of this process (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
