"""Order statistics for latency samples."""

from __future__ import annotations

import math
from typing import Sequence

# A percentile counts as resolved only when at least this many samples lie
# strictly above it.
MIN_BEYOND = 10


def percentile(ordered: Sequence[float], q: float) -> float:
    """The ``q``-th percentile of an ascending sequence.

    Linear interpolation between closest ranks, the method numpy.percentile
    uses by default, so the two agree on every input.
    """
    if not ordered:
        raise ValueError("percentile of an empty sample set")
    if not 0.0 <= q <= 100.0:
        raise ValueError(f"percentile {q} outside [0, 100]")
    pos = (len(ordered) - 1) * q / 100.0
    lo = math.floor(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def latency_summary(samples: Sequence[float]) -> dict:
    """p50 and p90 of one sample set, with the count that backs each."""
    ordered = sorted(samples)
    p50 = percentile(ordered, 50.0)
    p90 = percentile(ordered, 90.0)
    beyond = sum(1 for s in ordered if s > p90)
    return {
        "count": len(ordered),
        "p50": p50,
        "p90": p90,
        "beyond_p90": beyond,
        "p90_resolved": beyond >= MIN_BEYOND,
    }


def median(values: Sequence[float]) -> float:
    return percentile(sorted(values), 50.0)
