"""Admission control units: token buckets and explicit shedding."""

import pytest

from repro.obs.metrics import MetricsRegistry
from repro.serve import AdmissionController, TokenBucket


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


class TestTokenBucket:
    def test_burst_then_refill(self):
        bucket = TokenBucket(rate_per_s=2.0, burst=3.0, now_s=0.0)
        assert all(bucket.take(0.0) for _ in range(3))
        assert not bucket.take(0.0)
        # Half a second refills one token at 2/s.
        assert bucket.take(0.5)
        assert not bucket.take(0.5)

    def test_never_exceeds_burst(self):
        bucket = TokenBucket(rate_per_s=100.0, burst=2.0, now_s=0.0)
        bucket._refill(1e6)
        assert bucket.tokens == 2.0

    def test_retry_after_is_deficit_over_rate(self):
        bucket = TokenBucket(rate_per_s=4.0, burst=1.0, now_s=0.0)
        assert bucket.take(0.0)
        assert bucket.retry_after_s(0.0) == pytest.approx(0.25)

    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError):
            TokenBucket(rate_per_s=0.0, burst=1.0)
        with pytest.raises(ValueError):
            TokenBucket(rate_per_s=1.0, burst=0.0)


class TestAdmissionController:
    def _controller(self, **kwargs):
        clock = FakeClock()
        registry = MetricsRegistry()
        kwargs.setdefault("tenant_rate_per_s", 1000.0)
        kwargs.setdefault("tenant_burst", 1000.0)
        controller = AdmissionController(
            metrics=registry, clock=clock, **kwargs
        )
        return controller, clock, registry

    def test_admit_release_cycle(self):
        controller, _, _ = self._controller()
        assert controller.admit("a") == (None, 0.0)
        assert controller.inflight == 1
        controller.release()
        assert controller.inflight == 0

    def test_rate_limit_checked_before_capacity(self):
        # A rejection admits nothing: no release() is owed for it.
        controller, clock, registry = self._controller(
            tenant_rate_per_s=1.0, tenant_burst=1.0
        )
        assert controller.admit("noisy")[0] is None
        reason, retry = controller.admit("noisy")
        assert reason == "rate-limit"
        assert retry > 0.0
        # Other tenants are still admitted.
        assert controller.inflight == 1
        assert controller.admit("quiet")[0] is None
        counters = registry.to_dict()["counters"]
        assert counters["serve.tenant.noisy.rejected"] == 1
        assert counters["serve.tenant.quiet.queries"] == 1

    def test_rate_limit_recovers_with_time(self):
        controller, clock, _ = self._controller(
            tenant_rate_per_s=2.0, tenant_burst=1.0
        )
        assert controller.admit("a")[0] is None
        assert controller.admit("a")[0] == "rate-limit"
        clock.now += 0.5  # one token refilled
        assert controller.admit("a")[0] is None

    def test_unbalanced_release_raises(self):
        controller, _, _ = self._controller()
        with pytest.raises(RuntimeError):
            controller.release()

    def test_counters_document(self):
        controller, _, _ = self._controller()
        controller.admit("a")
        doc = controller.counters()
        assert doc["accepted"] == 1
        assert doc["rejected_rate_limit"] == 0
        # What one thread makes constant is not in the document.
        assert "rejected_overload" not in doc and "inflight" not in doc
