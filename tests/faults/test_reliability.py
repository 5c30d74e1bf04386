"""End-to-end reliability: retry/backoff recovery and graceful degradation
under injected faults.  That a zero-fault plan is no plan, and that a
seeded plan replays, are rows of ``tests/test_determinism_matrix.py``."""

import pickle

from repro.experiments.runner import FabricSession, RunConfig, run_scenario
from repro.faults import FaultPlan
from repro.telemetry.snapshot import SwitchReport
from repro.units import usec
from repro.workloads import SCENARIO_BUILDERS


def run(scenario_name, seed=1, **config_kwargs):
    scenario = SCENARIO_BUILDERS[scenario_name](seed=seed)
    return scenario, run_scenario(scenario, RunConfig(**config_kwargs))


class TestRetryRecovery:
    def test_retransmission_recovers_lossy_control_path(self):
        scenario, result = run(
            "incast-backpressure",
            faults=FaultPlan.lossy(0.1),
            retry=True,
        )
        diagnosis = result.diagnosis()
        assert diagnosis is not None
        assert diagnosis.anomaly.value == scenario.truth.anomaly.value
        assert diagnosis.confidence == "full"

    def test_no_retries_degrades_but_never_lies(self):
        scenario, result = run(
            "incast-backpressure", faults=FaultPlan.lossy(0.1)
        )
        assert sum(result.fault_counters.values()) > 0
        diagnosis = result.diagnosis()
        if diagnosis is not None and (
            diagnosis.anomaly.value != scenario.truth.anomaly.value
        ):
            assert diagnosis.confidence == "degraded"

    def test_retries_bounded(self, monkeypatch):
        monkeypatch.setattr("repro.collection.agent.MAX_RETRIES", 2)
        _, result = run(
            "incast-backpressure",
            faults=FaultPlan(seed=1, polling_loss_rate=1.0),
            retry=True,
        )
        # Every trigger's polling trace dies at the first hop, so every
        # retry fires and exhausts: retransmissions stay within budget.
        retransmitted = result.fault_counters.get("polling_retransmitted", 0)
        exhausted = result.fault_counters.get("polling_retries_exhausted", 0)
        assert exhausted > 0
        assert retransmitted <= 2 * exhausted


class TestDmaFaults:
    def test_total_dma_failure_abandons_within_budget(self, monkeypatch):
        monkeypatch.setattr("repro.collection.collector.DMA_RETRY_BUDGET", 2)
        _, result = run(
            "normal-contention",
            faults=FaultPlan(seed=1, dma_failure_rate=1.0),
            retry=True,
        )
        counters = result.fault_counters
        assert counters.get("dma_read_retried", 0) > 0
        assert counters.get("dma_read_abandoned", 0) > 0
        assert counters["dma_read_retried"] == 2 * counters["dma_read_abandoned"]
        diagnosis = result.diagnosis()
        assert diagnosis is None or diagnosis.confidence == "degraded"

    def test_partial_dma_failure_recovered_by_retry(self):
        scenario, result = run(
            "incast-backpressure",
            faults=FaultPlan(seed=1, dma_failure_rate=0.3),
            retry=True,
        )
        assert result.fault_counters.get("dma_read_retried", 0) > 0
        diagnosis = result.diagnosis()
        assert diagnosis.anomaly.value == scenario.truth.anomaly.value

    def test_stale_reads_flagged_and_degrade_confidence(self):
        _, result = run(
            "incast-backpressure",
            faults=FaultPlan(seed=1, dma_stale_rate=1.0),
        )
        assert result.fault_counters.get("dma_read_stale", 0) > 0
        diagnosis = result.diagnosis()
        assert diagnosis.confidence == "degraded"
        assert any("stale" in entry for entry in diagnosis.degraded_reports)
        assert "confidence: degraded" in diagnosis.describe()


class TestReportChannelFaults:
    def test_truncation_flagged(self):
        _, result = run(
            "incast-backpressure",
            faults=FaultPlan(seed=1, report_truncate_rate=1.0),
        )
        assert result.fault_counters.get("report_truncated", 0) > 0
        diagnosis = result.diagnosis()
        assert any("truncated" in e for e in diagnosis.degraded_reports)

    def test_delayed_reports_still_delivered(self, monkeypatch):
        monkeypatch.setattr("repro.faults.injector.REPORT_DELAY_MAX_NS", usec(100))
        _, result = run(
            "incast-backpressure",
            faults=FaultPlan(seed=1, report_delay_rate=1.0),
        )
        assert result.fault_counters.get("report_delayed", 0) > 0
        assert result.collections > 0
        assert result.diagnosis() is not None

    def test_clock_skew_flags_reports(self):
        _, result = run(
            "incast-backpressure",
            faults=FaultPlan(seed=1, clock_skew_max_ns=usec(50)),
        )
        assert result.fault_counters.get("clock_skewed", 0) > 0
        diagnosis = result.diagnosis()
        assert any("skewed" in e for e in diagnosis.degraded_reports)


class TestAgentRestart:
    def test_restarts_counted_and_survived(self):
        _, result = run(
            "incast-backpressure",
            faults=FaultPlan(seed=1, agent_restart_rate=0.2),
        )
        restarts = result.fault_counters.get("agent_restarted", 0)
        assert restarts > 0
        counters = result.metrics.to_dict()["counters"]
        assert counters["faults.agent_restarted"] == restarts


class TestFaultFlagsSurvivePlumbing:
    def test_pickle_round_trip_preserves_faults(self):
        report = SwitchReport(switch="SW1", collect_time=123)
        report.faults = ("stale", "truncated")
        restored = pickle.loads(pickle.dumps(report))
        assert restored.faults == ("stale", "truncated")

    def test_session_totals_pickle_round_trip(self):
        """What a shard worker sends its parent: a real session's totals,
        flagged reports included, equal after the pickle."""
        scenario = SCENARIO_BUILDERS["incast-backpressure"](seed=1)
        session = FabricSession(
            scenario,
            RunConfig(faults=FaultPlan(seed=1, clock_skew_max_ns=usec(50))),
        )
        session.advance(scenario.duration_ns)
        totals = session.totals()
        restored = pickle.loads(pickle.dumps(totals))
        assert restored == totals
        assert any("skewed" in r.faults for r in restored.reports)
        assert [r.faults for r in restored.reports] == [
            r.faults for r in totals.reports
        ]

    def test_visibility_transforms_preserve_faults(self):
        from repro.baselines.transforms import (
            strip_flow_telemetry,
            strip_pfc_visibility,
            strip_port_causality,
        )

        report = SwitchReport(switch="SW1", collect_time=123)
        report.faults = ("stale",)
        for transform in (
            strip_flow_telemetry, strip_port_causality, strip_pfc_visibility
        ):
            assert transform(report).faults == ("stale",)
