"""The few statistics the benchmark reports, in one place."""

from __future__ import annotations

import statistics
from typing import List, Sequence, Tuple

# Percentiles a latency may be reported at, lowest first.
LADDER = (50, 75, 90, 95, 99)
MIN_BEYOND = 10


def percentile(values: Sequence[float], pct: float) -> float:
    """Linear-interpolated percentile (``pct`` in 0..100) of ``values``."""
    if not values:
        raise ValueError("percentile of no samples")
    ordered = sorted(values)
    rank = (len(ordered) - 1) * pct / 100.0
    low = int(rank)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (rank - low)


def median(values: Sequence[float]) -> float:
    return statistics.median(values) if values else 0.0


def samples_beyond(n: int, pct: float) -> float:
    """How many of ``n`` samples lie beyond the ``pct`` percentile."""
    return n * (100.0 - pct) / 100.0


def highest_supported(n: int) -> int:
    """The highest ladder percentile with at least ten samples beyond it
    (the median when even that has fewer)."""
    best = LADDER[0]
    for pct in LADDER:
        if samples_beyond(n, pct) >= MIN_BEYOND:
            best = pct
    return best


def quartile_spread(values: Sequence[float]) -> float:
    """(Q3 - Q1) / median, the run-to-run spread the driver computes."""
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / q2 if q2 else 0.0


def open_loop_latencies(
    due: Sequence[float], sent: Sequence[float], done: Sequence[float]
) -> Tuple[List[float], List[float]]:
    """Open-loop accounting: latency runs from when a request was *due*,
    so a generator stall is charged to the requests it delayed; lateness
    (sent - due) is returned beside it."""
    latency = [d - u for u, d in zip(due, done)]
    late = [max(0.0, s - u) for u, s in zip(due, sent)]
    return latency, late
