"""FaultInjector determinism: seeded streams, memoized skew, incident log."""

from repro.faults import FaultInjector, FaultPlan, make_injector
from repro.faults.injector import (
    DMA_FAIL,
    DMA_OK,
    DMA_STALE,
    REPORT_DELAYED,
    REPORT_LOST,
    REPORT_TRUNCATED,
    FaultIncident,
)
from repro.units import usec


class TestMakeInjector:
    def test_none_plan_gives_none(self):
        assert make_injector(None) is None

    def test_noop_plan_gives_none(self):
        assert make_injector(FaultPlan()) is None

    def test_live_plan_gives_injector(self):
        injector = make_injector(FaultPlan.lossy(0.1))
        assert isinstance(injector, FaultInjector)


class TestDeterminism:
    def test_same_plan_same_decisions(self):
        plan = FaultPlan(seed=42, polling_loss_rate=0.3, dma_failure_rate=0.3)
        a, b = FaultInjector(plan), FaultInjector(plan)
        fates_a = [a.polling_fate(i, "SW1") for i in range(200)]
        fates_b = [b.polling_fate(i, "SW1") for i in range(200)]
        assert fates_a == fates_b
        assert a.incident_log() == b.incident_log()

    def test_different_seed_different_decisions(self):
        mk = lambda s: FaultInjector(FaultPlan(seed=s, polling_loss_rate=0.5))
        a, b = mk(1), mk(2)
        assert (
            [a.polling_fate(i, "SW") for i in range(200)]
            != [b.polling_fate(i, "SW") for i in range(200)]
        )

    def test_categories_draw_independent_streams(self):
        """Consulting one category must not perturb another's sequence."""
        plan = FaultPlan(seed=5, polling_loss_rate=0.4, dma_failure_rate=0.4)
        pure = FaultInjector(plan)
        mixed = FaultInjector(plan)
        pure_fates = [pure.polling_fate(i, "SW") for i in range(100)]
        mixed_fates = []
        for i in range(100):
            mixed.dma_fate(i, "SW")  # interleaved extra draws
            mixed_fates.append(mixed.polling_fate(i, "SW"))
        assert pure_fates == mixed_fates


class TestFates:
    def test_certain_loss(self):
        injector = FaultInjector(FaultPlan(polling_loss_rate=1.0))
        assert not injector.polling_fate(0, "SW")
        assert [i.kind for i in injector.incidents] == ["polling_packet_lost"]

    def test_corruption_counted_separately(self):
        injector = FaultInjector(FaultPlan(polling_corrupt_rate=1.0))
        assert not injector.polling_fate(0, "SW")
        assert [i.kind for i in injector.incidents] == ["polling_packet_corrupted"]

    def test_dma_fates(self):
        assert FaultInjector(FaultPlan(dma_failure_rate=1.0)).dma_fate(0, "SW") == DMA_FAIL
        assert FaultInjector(FaultPlan(dma_stale_rate=1.0)).dma_fate(0, "SW") == DMA_STALE
        assert FaultInjector(FaultPlan.lossy(0.0, seed=1)).dma_fate(0, "SW") == DMA_OK

    def test_report_fates_and_delay_bounds(self, monkeypatch):
        monkeypatch.setattr("repro.faults.injector.REPORT_DELAY_MAX_NS", usec(100))
        lost, _ = FaultInjector(FaultPlan(report_loss_rate=1.0)).report_fate(0, "SW")
        assert lost == REPORT_LOST
        trunc, _ = FaultInjector(FaultPlan(report_truncate_rate=1.0)).report_fate(0, "SW")
        assert trunc == REPORT_TRUNCATED
        injector = FaultInjector(FaultPlan(report_delay_rate=1.0))
        for _ in range(50):
            fate, delay = injector.report_fate(0, "SW")
            assert fate == REPORT_DELAYED
            assert 1 <= delay < usec(100)

    def test_retry_jitter_bounded(self):
        injector = FaultInjector(FaultPlan.lossy(0.1))
        assert injector.retry_jitter(0) == 0
        for _ in range(50):
            assert 0 <= injector.retry_jitter(usec(20)) < usec(20)


class TestClockSkew:
    def test_skew_memoized_and_bounded(self):
        injector = FaultInjector(FaultPlan(clock_skew_max_ns=usec(50)))
        first = injector.clock_skew_for("SW1")
        assert injector.clock_skew_for("SW1") == first
        assert -usec(50) <= first <= usec(50)

    def test_skew_keyed_by_name_not_order(self):
        plan = FaultPlan(seed=9, clock_skew_max_ns=usec(50))
        a, b = FaultInjector(plan), FaultInjector(plan)
        a.clock_skew_for("SW1")
        skew_a = a.clock_skew_for("SW2")
        skew_b = b.clock_skew_for("SW2")  # asked first here
        assert skew_a == skew_b

    def test_zero_max_no_skew(self):
        injector = FaultInjector(FaultPlan.lossy(0.1))
        assert injector.clock_skew_for("SW1") == 0


class TestIncidentLog:
    def test_incidents_in_order_with_detail(self):
        injector = FaultInjector(FaultPlan(polling_loss_rate=1.0))
        injector.polling_fate(100, "SW1")
        injector.polling_fate(250, "SW2")
        log = injector.incident_log()
        assert log[0] == "t=100 polling_packet_lost @ SW1"
        assert log[1] == "t=250 polling_packet_lost @ SW2"

    def test_count_records_recovery_events(self):
        injector = FaultInjector(FaultPlan.lossy(0.1))
        injector.count("polling_retransmitted", "flow", 500, "attempt=1")
        assert injector.incident_log() == [
            "t=500 polling_retransmitted @ flow (attempt=1)"
        ]

    def test_incident_describe(self):
        plain = FaultIncident(10, "report_lost", "SW3")
        assert plain.describe() == "t=10 report_lost @ SW3"
        detailed = FaultIncident(10, "report_delayed", "SW3", "delay=5ns")
        assert detailed.describe() == "t=10 report_delayed @ SW3 (delay=5ns)"
