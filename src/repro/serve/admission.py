"""Admission control for the query path: stay responsive by refusing work.

One guard, answering with an explicit reason instead of letting latency
grow without bound: **per-tenant token buckets** — each tenant refills at
``rate_per_s`` up to ``burst``; a query with no token is rejected
``rate-limit`` with a ``retry_after_s`` hint.  One noisy tenant cannot
starve the rest.

There is no server-side queue to bound: the service answers a query
synchronously between :meth:`~AdmissionController.admit` and
:meth:`~AdmissionController.release` on its one thread, so at most one
query is ever in flight and excess load waits where it arrived — in its
connection's socket buffer — until the loop reads it, is admitted or
shed there, and answered in arrival order per connection.

Every decision is counted into the ``serve.*`` metrics registry so
``/servicez`` and the Prometheus endpoint expose admission behaviour per
tenant.
"""

from __future__ import annotations

import time
from typing import Callable, Dict, Optional, Tuple

from ..obs.metrics import MetricsRegistry

__all__ = ["TokenBucket", "AdmissionController"]


class TokenBucket:
    """A standard token bucket: ``rate_per_s`` refill, ``burst`` cap.

    Time is injected (monotonic seconds) so tests are deterministic.
    """

    __slots__ = ("rate_per_s", "burst", "tokens", "updated_s")

    def __init__(self, rate_per_s: float, burst: float, now_s: float = 0.0) -> None:
        if rate_per_s <= 0 or burst <= 0:
            raise ValueError("rate_per_s and burst must be positive")
        self.rate_per_s = rate_per_s
        self.burst = float(burst)
        self.tokens = float(burst)
        self.updated_s = now_s

    def _refill(self, now_s: float) -> None:
        elapsed = now_s - self.updated_s
        if elapsed > 0:
            self.tokens = min(self.burst, self.tokens + elapsed * self.rate_per_s)
        self.updated_s = now_s

    def take(self, now_s: float, cost: float = 1.0) -> bool:
        self._refill(now_s)
        if self.tokens >= cost:
            self.tokens -= cost
            return True
        return False

    def retry_after_s(self, now_s: float, cost: float = 1.0) -> float:
        """Seconds until ``cost`` tokens will be available."""
        self._refill(now_s)
        deficit = cost - self.tokens
        return max(0.0, deficit / self.rate_per_s)


class AdmissionController:
    """Decide and count query admissions, one token bucket per tenant."""

    def __init__(
        self,
        tenant_rate_per_s: float = 50.0,
        tenant_burst: float = 20.0,
        metrics: Optional[MetricsRegistry] = None,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        self.tenant_rate_per_s = tenant_rate_per_s
        self.tenant_burst = tenant_burst
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self.clock = clock
        self.inflight = 0
        self._buckets: Dict[str, TokenBucket] = {}

    def bucket(self, tenant: str) -> TokenBucket:
        bucket = self._buckets.get(tenant)
        if bucket is None:
            bucket = self._buckets[tenant] = TokenBucket(
                self.tenant_rate_per_s, self.tenant_burst, now_s=self.clock()
            )
        return bucket

    def admit(self, tenant: str) -> Tuple[Optional[str], float]:
        """Try to admit one query for ``tenant``.

        Returns ``(None, 0.0)`` on admission (the caller must pair it
        with :meth:`release`), else ``(reason, retry_after_s)``.
        """
        metrics = self.metrics
        now_s = self.clock()
        bucket = self.bucket(tenant)
        if not bucket.take(now_s):
            metrics.inc("serve.queries.rejected.rate_limit")
            metrics.inc(f"serve.tenant.{tenant}.rejected")
            return "rate-limit", bucket.retry_after_s(now_s)
        self.inflight += 1
        metrics.inc("serve.queries.accepted")
        metrics.inc(f"serve.tenant.{tenant}.queries")
        return None, 0.0

    def release(self) -> None:
        """One admitted query finished (answered or failed)."""
        if self.inflight <= 0:
            raise RuntimeError("release() without a matching admit()")
        self.inflight -= 1

    def counters(self) -> Dict[str, int]:
        """The admission slice of the ``/servicez`` document."""
        doc = self.metrics.to_dict()["counters"]
        return {
            "accepted": doc.get("serve.queries.accepted", 0),
            "rejected_rate_limit": doc.get(
                "serve.queries.rejected.rate_limit", 0
            ),
        }
