"""Pinned end-to-end behaviour: every anomaly class raises a
correct-category alert before its diagnosis completes, and the incident
timeline links those alerts to the final Diagnosis.

These pins are the acceptance contract of the continuous-monitoring
layer: if a rule threshold or sampling change makes any of the five
anomaly classes fly under the monitor's radar, this file fails.
"""

import pytest

from repro.experiments import RunConfig, run_scenario
from repro.faults.chaos import CHAOS_SCENARIOS
from repro.monitor import ANOMALY_ALERT_CATEGORIES, MonitorConfig
from repro.workloads import SCENARIO_BUILDERS

# scenario builder -> the anomaly class its seed-1 run is diagnosed as.
EXPECTED_ANOMALY = {
    "pfc-storm": "pfc-storm",
    "incast-backpressure": "pfc-backpressure-flow-contention",
    "in-loop-deadlock": "in-loop-deadlock",
    "out-of-loop-deadlock": "out-of-loop-deadlock-injection",
    "normal-contention": "normal-flow-contention",
}


def run_monitored(name, seed=1, **knobs):
    scenario = SCENARIO_BUILDERS[name](seed=seed)
    return run_scenario(
        scenario, RunConfig(monitor=MonitorConfig(**knobs))
    )


class TestEveryAnomalyClassAlertsEarly:
    @pytest.mark.parametrize("name", CHAOS_SCENARIOS)
    def test_correct_category_alert_precedes_diagnosis(self, name):
        result = run_monitored(name)
        monitor = result.monitor
        incidents = monitor.timeline.incidents
        assert incidents, f"{name}: no diagnosis reached the timeline"
        for incident in incidents:
            assert incident.anomaly == EXPECTED_ANOMALY[name]
            expected = ANOMALY_ALERT_CATEGORIES[incident.anomaly]
            early = [a for a in incident.alerts if a.category in expected]
            assert early, (
                f"{name}: no {sorted(expected)} alert before the verdict "
                f"(got categories {sorted(incident.categories)})"
            )
            # "Before the diagnosis completes": every timeline alert
            # precedes the verdict timestamp by construction — assert it
            # anyway so a refactor cannot silently weaken the window.
            assert all(a.time_ns <= incident.verdict_ns for a in incident.alerts)
            assert incident.early_warning
            assert incident.lead_time_ns() > 0

    @pytest.mark.parametrize("name", CHAOS_SCENARIOS)
    def test_timeline_links_alerts_to_diagnosed_provenance(self, name):
        """At least one alerting subject lies on the diagnosed PFC path,
        deadlock loop, or initial congestion port of the final Diagnosis."""
        result = run_monitored(name)
        for incident in result.monitor.timeline.incidents:
            assert incident.linked_subjects, (
                f"{name}: no alert subject on the diagnosed provenance"
            )
            alert_subjects = {a.subject for a in incident.alerts}
            assert set(incident.linked_subjects) <= alert_subjects

    def test_storm_scenario_raises_the_storm_category(self):
        """The PFC-storm signature specifically: pause frames granted on a
        host-facing port long enough to saturate the sampling window."""
        result = run_monitored("pfc-storm")
        categories = result.monitor.engine.alerts_by_category()
        assert categories.get("pfc_storm", 0) >= 1


class TestTimelineIntegration:
    def test_incident_carries_culprits_and_victim(self):
        result = run_monitored("incast-backpressure")
        incident = result.monitor.timeline.incidents[0]
        diagnosis = result.diagnosis()
        assert incident.victim == str(diagnosis.victim)
        assert incident.culprits == [
            str(k) for k in diagnosis.primary().culprit_keys()
        ]
        assert incident.confidence == diagnosis.confidence

    def test_span_id_linked_when_tracing_on(self):
        from repro.obs import ObsConfig

        scenario = SCENARIO_BUILDERS["pfc-storm"](seed=1)
        result = run_scenario(
            scenario,
            RunConfig(
                monitor=MonitorConfig(), obs=ObsConfig(trace=True)
            ),
        )
        incidents = result.monitor.timeline.incidents
        assert incidents
        span_ids = {r.get("id") for r in result.obs.tracer.records()}
        for incident in incidents:
            assert incident.span_id is not None
            assert incident.span_id in span_ids

    def test_span_id_absent_without_tracing(self):
        result = run_monitored("pfc-storm")
        assert all(
            i.span_id is None for i in result.monitor.timeline.incidents
        )

    def test_incident_to_dict_round_trips_json(self):
        import json

        result = run_monitored("pfc-storm")
        payload = result.monitor.timeline.to_dict()
        assert json.loads(json.dumps(payload)) == payload
        assert payload["incidents"][0]["early_warning"] is True


class TestRunnerSurfaces:
    def test_monitor_off_by_default(self):
        scenario = SCENARIO_BUILDERS["normal-contention"](seed=1)
        result = run_scenario(scenario, RunConfig())
        assert result.monitor is None

    def test_metrics_absorb_monitor_counters(self):
        result = run_monitored("pfc-storm")
        metrics = result.metrics.to_dict()
        assert metrics["counters"]["monitor.samples"] == result.monitor.samples
        assert metrics["counters"]["monitor.alerts_total"] == len(
            result.monitor.alerts
        )
        assert metrics["counters"]["monitor.sketch.updates"] > 0
        # The agent fed the monitor RTT samples through its histogram.
        assert metrics["histograms"]["monitor.rtt_ns"]["count"] > 0
        assert metrics["histograms"]["monitor.rtt_ns"]["p95"] is not None

    def test_alert_counters_equal_the_monitors_tally(self):
        """Each ``monitor.alerts.<category>`` counter is counted once."""
        result = run_monitored("pfc-storm")
        counters = result.metrics.to_dict()["counters"]
        by_category = result.monitor.engine.alerts_by_category()
        assert by_category
        for category, count in by_category.items():
            assert counters[f"monitor.alerts.{category}"] == count

    def test_summary_carries_alert_reduction(self):
        from repro.experiments.runner import (
            ScenarioSpec,
            run_scenarios_parallel,
        )

        specs = [ScenarioSpec(builder="pfc-storm", seed=1)]
        config = RunConfig(monitor=MonitorConfig())
        (summary,) = run_scenarios_parallel(specs, config)
        assert summary.alerts > 0
        assert summary.incidents > 0
        assert summary.early_warnings == summary.incidents
        assert "pause_backpressure" in summary.alert_categories
