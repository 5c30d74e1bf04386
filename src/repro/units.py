"""Unit helpers shared across the simulator and the diagnosis stack.

All simulation time is kept as integer nanoseconds and all data sizes as
integer bytes, so that event ordering is exact and reproducible.  These
helpers exist so call sites read naturally (``usec(5)``, ``gbps(100)``)
instead of sprinkling magic powers of ten around.
"""

from __future__ import annotations

# ---------------------------------------------------------------------------
# Time (integer nanoseconds)
# ---------------------------------------------------------------------------

NSEC = 1
USEC = 1_000
MSEC = 1_000_000
SEC = 1_000_000_000


def nsec(value: float) -> int:
    """Convert nanoseconds to the canonical integer-ns representation."""
    return int(round(value * NSEC))


def usec(value: float) -> int:
    """Convert microseconds to integer nanoseconds."""
    return int(round(value * USEC))


def msec(value: float) -> int:
    """Convert milliseconds to integer nanoseconds."""
    return int(round(value * MSEC))


def sec(value: float) -> int:
    """Convert seconds to integer nanoseconds."""
    return int(round(value * SEC))


# ---------------------------------------------------------------------------
# Data sizes (integer bytes)
# ---------------------------------------------------------------------------

BYTE = 1
KB = 1_000
MB = 1_000_000
GB = 1_000_000_000


def kilobytes(value: float) -> int:
    """Convert kilobytes (decimal) to integer bytes."""
    return int(round(value * KB))


def megabytes(value: float) -> int:
    """Convert megabytes (decimal) to integer bytes."""
    return int(round(value * MB))


# ---------------------------------------------------------------------------
# Bandwidth (bytes per second internally; helpers take bits per second)
# ---------------------------------------------------------------------------


def gbps(value: float) -> float:
    """Convert gigabits/s to bytes/s."""
    return value * 1e9 / 8.0


def mbps(value: float) -> float:
    """Convert megabits/s to bytes/s."""
    return value * 1e6 / 8.0


def serialization_delay_ns(size_bytes: int, bandwidth_bytes_per_sec: float) -> int:
    """Time to put ``size_bytes`` on a wire of the given bandwidth.

    Always at least 1 ns so that back-to-back transmissions of tiny frames
    still advance simulated time.  Not memoized: the per-frame callers
    (switch ports, host uplinks) keep their own size -> ns table.
    """
    if bandwidth_bytes_per_sec <= 0:
        raise ValueError("bandwidth must be positive")
    return max(1, int(round(size_bytes * SEC / bandwidth_bytes_per_sec)))


def bytes_per_ns(bandwidth_bytes_per_sec: float) -> float:
    """Bandwidth expressed as bytes per nanosecond."""
    return bandwidth_bytes_per_sec / SEC
