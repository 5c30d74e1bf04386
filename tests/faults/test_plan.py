"""FaultPlan validation and semantics, and the retry backoff."""

import pytest

from repro.faults import FaultPlan, plan_or_none
from repro.faults.plan import backoff_ns
from repro.units import usec


class TestFaultPlanValidation:
    @pytest.mark.parametrize("field", [
        "polling_loss_rate", "polling_corrupt_rate", "report_loss_rate",
        "report_truncate_rate", "report_delay_rate", "dma_failure_rate",
        "dma_stale_rate", "agent_restart_rate",
    ])
    @pytest.mark.parametrize("bad", [-0.1, 1.5])
    def test_out_of_range_rate_rejected(self, field, bad):
        with pytest.raises(ValueError, match=field):
            FaultPlan(**{field: bad})

    def test_negative_clock_skew_rejected(self):
        with pytest.raises(ValueError, match="clock_skew_max_ns"):
            FaultPlan(clock_skew_max_ns=-1)

    def test_boundary_rates_accepted(self):
        FaultPlan(polling_loss_rate=0.0, report_loss_rate=1.0)


class TestFaultPlanSemantics:
    def test_default_plan_disabled(self):
        assert not FaultPlan().enabled

    def test_any_rate_enables(self):
        assert FaultPlan(dma_failure_rate=0.01).enabled

    def test_clock_skew_alone_enables(self):
        assert FaultPlan(clock_skew_max_ns=usec(1)).enabled

    def test_lossy_is_symmetric(self):
        plan = FaultPlan.lossy(0.25, seed=7)
        assert plan.polling_loss_rate == 0.25
        assert plan.report_loss_rate == 0.25
        assert plan.seed == 7

    def test_describe_names_active_faults(self):
        plan = FaultPlan(seed=3, report_loss_rate=0.5)
        text = plan.describe()
        assert "seed=3" in text
        assert "report_loss_rate=0.5" in text
        assert "dma_failure_rate" not in text

    def test_plan_or_none_normalizes(self):
        assert plan_or_none(None) is None
        assert plan_or_none(FaultPlan()) is None
        live = FaultPlan.lossy(0.1)
        assert plan_or_none(live) is live


class TestRetryPolicy:
    def test_backoff_is_exponential(self):
        assert backoff_ns(1) == usec(300)
        assert backoff_ns(2) == usec(600)
        assert backoff_ns(3) == usec(1200)

    def test_backoff_factor_one_is_constant(self, monkeypatch):
        monkeypatch.setattr("repro.faults.plan.REPORT_TIMEOUT_NS", usec(100))
        monkeypatch.setattr("repro.faults.plan.BACKOFF_FACTOR", 1.0)
        assert backoff_ns(1) == backoff_ns(4) == usec(100)
