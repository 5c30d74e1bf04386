"""Metrics registry: counters, gauges and histograms with a JSON export.

The registry is the single place run-level numbers end up.  It absorbs
(and supersedes as the canonical export) the ad-hoc counter dicts that
grew across PR1-PR3 — ``PerfStats`` event-loop/cache counters,
``FaultInjector.stats``, ``CollectionStats`` and the polling/agent
reliability tallies — plus the trace-derived per-kind event counts, so
``--metrics-json`` gives one coherent document per run.

Two usage modes:

- **live**: components increment counters as they go (the sim-trace
  observer and :class:`~repro.obs.pipeline.PipelineObs` do this — the
  trace-property tests assert live counters match trace event counts);
- **absorb**: at end of run the runner pulls every legacy counter dict in
  with :meth:`MetricsRegistry.absorb_counters`, which namespaces them
  without touching the sources (the old attributes keep working).

Metric names are dotted paths (``polling.packets_forwarded``); the export
nests them by the first segment and sorts keys, so the JSON is stable.
"""

from __future__ import annotations

import math
from typing import Any, Dict, List, Mapping, Optional

# Histogram quantile resolution: 64 power-of-two buckets centered on 1.0.
# Bucket ``i`` covers ``[2**(i-33), 2**(i-32))``; the extremes clamp, so
# any positive value lands somewhere and zero/negatives take bucket 0.
_HIST_BUCKETS = 64
_HIST_BIAS = 32


def _bucket_index(value: float) -> int:
    if value <= 0.0:
        return 0
    # frexp(v) = (m, e) with v = m * 2**e, 0.5 <= m < 1  =>  log2-floor = e-1.
    e = math.frexp(value)[1]
    idx = e + _HIST_BIAS
    if idx < 0:
        return 0
    if idx >= _HIST_BUCKETS:
        return _HIST_BUCKETS - 1
    return idx


class Counter:
    """A monotonically increasing integer."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0

    def inc(self, n: int = 1) -> None:
        self.value += n


class Gauge:
    """A last-write-wins number."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value: float = 0.0

    def set(self, value: float) -> None:
        self.value = value


class Histogram:
    """Streaming summary of observed values with approximate quantiles.

    Full-fidelity distributions are overkill for per-stage wall times and
    span durations; observation stays O(1) — the scalar summary plus one
    increment into a fixed set of power-of-two buckets, from which
    :meth:`quantile` interpolates p50/p95/p99 (exact within a factor-of-two
    bucket, clamped to the true observed min/max).
    """

    __slots__ = ("count", "total", "min", "max", "_buckets")

    def __init__(self) -> None:
        self.count = 0
        self.total = 0.0
        self.min: Optional[float] = None
        self.max: Optional[float] = None
        self._buckets: List[int] = [0] * _HIST_BUCKETS

    def observe(self, value: float) -> None:
        self.count += 1
        self.total += value
        if self.min is None or value < self.min:
            self.min = value
        if self.max is None or value > self.max:
            self.max = value
        self._buckets[_bucket_index(value)] += 1

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def quantile(self, q: float) -> Optional[float]:
        """Approximate ``q``-quantile via the log2 buckets (None if empty)."""
        if self.count == 0:
            return None
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"quantile must be in [0, 1], got {q}")
        rank = q * self.count
        cumulative = 0
        for idx, n in enumerate(self._buckets):
            if n == 0:
                continue
            if cumulative + n >= rank:
                # Interpolate within the bucket's [2^(idx-33), 2^(idx-32)).
                low = 0.0 if idx == 0 else 2.0 ** (idx - _HIST_BIAS - 1)
                high = 2.0 ** (idx - _HIST_BIAS)
                frac = (rank - cumulative) / n
                value = low + frac * (high - low)
                # The observed extremes are exact; never report outside them.
                return min(max(value, self.min), self.max)
            cumulative += n
        return self.max

    def to_dict(self) -> Dict[str, Any]:
        return {
            "count": self.count,
            "sum": self.total,
            "min": self.min,
            "max": self.max,
            "mean": self.mean,
            "p50": self.quantile(0.50),
            "p95": self.quantile(0.95),
            "p99": self.quantile(0.99),
        }


class MetricsRegistry:
    """Get-or-create registry of named counters/gauges/histograms."""

    def __init__(self) -> None:
        self._counters: Dict[str, Counter] = {}
        self._gauges: Dict[str, Gauge] = {}
        self._histograms: Dict[str, Histogram] = {}

    # -- get-or-create --------------------------------------------------------

    def counter(self, name: str) -> Counter:
        metric = self._counters.get(name)
        if metric is None:
            metric = self._counters[name] = Counter()
        return metric

    def gauge(self, name: str) -> Gauge:
        metric = self._gauges.get(name)
        if metric is None:
            metric = self._gauges[name] = Gauge()
        return metric

    def histogram(self, name: str) -> Histogram:
        metric = self._histograms.get(name)
        if metric is None:
            metric = self._histograms[name] = Histogram()
        return metric

    # -- convenience ----------------------------------------------------------

    def inc(self, name: str, n: int = 1) -> None:
        self.counter(name).inc(n)

    def counter_value(self, name: str) -> int:
        metric = self._counters.get(name)
        return metric.value if metric is not None else 0

    def absorb_counters(self, prefix: str, counters: Mapping[str, Any]) -> None:
        """Fold a legacy counter mapping in under ``prefix.``.

        Only integer-valued entries are absorbed as counters; nested
        mappings (the cache hit/miss dicts) recurse with their key joined
        into the name.
        """
        for key, value in counters.items():
            name = f"{prefix}.{key}"
            if isinstance(value, Mapping):
                self.absorb_counters(name, value)
            elif isinstance(value, bool):
                self.counter(name).inc(int(value))
            elif isinstance(value, int):
                self.counter(name).inc(value)
            elif isinstance(value, float):
                self.gauge(name).set(value)

    # -- export ---------------------------------------------------------------

    def to_dict(self) -> Dict[str, Any]:
        """Sorted, JSON-ready view (the ``--metrics-json`` document body)."""
        return {
            "counters": {
                name: metric.value
                for name, metric in sorted(self._counters.items())
            },
            "gauges": {
                name: metric.value
                for name, metric in sorted(self._gauges.items())
            },
            "histograms": {
                name: metric.to_dict()
                for name, metric in sorted(self._histograms.items())
            },
        }
