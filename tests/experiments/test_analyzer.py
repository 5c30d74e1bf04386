"""Analyzer service tests: continuous diagnosis, incident dedup."""

import pytest

from repro.collection import DetectionAgent, PollingEngine, TelemetryCollector
from repro.core import AnomalyType
from repro.experiments import AnalyzerService, deploy_analyzer, runner
from repro.experiments import analyzer as analyzer_module
from repro.sim import Network
from repro.telemetry import EpochScheme, HawkeyeDeployment, TelemetryConfig
from repro.topology import build_line
from repro.units import KB, msec, usec


def backpressured_line():
    """A line fabric with an incast whose PFC pauses a bystander victim."""
    topo = build_line(num_switches=3, hosts_per_switch=4)
    net = Network(topo)
    analyzer = deploy_analyzer(net)
    for i, src in enumerate(["H1_1", "H2_0", "H2_1", "H2_2", "H3_1", "H3_2"]):
        net.start_flow(net.make_flow(src, "H3_0", 500 * KB, usec(10), src_port=11000 + i))
    victim = net.make_flow("H1_0", "H2_1", 300 * KB, usec(5), src_port=12000)
    net.start_flow(victim)
    return net, analyzer, victim


class TestContinuousOperation:
    def test_incident_created_and_diagnosed(self):
        net, analyzer, victim = backpressured_line()
        net.run(msec(8))
        diagnosed = analyzer.diagnosed_incidents()
        assert diagnosed, "the anomaly must become a diagnosed incident"
        primary = diagnosed[0].diagnosis.primary()
        assert primary.anomaly is AnomalyType.MICRO_BURST_INCAST

    def test_concurrent_complaints_share_one_incident(self):
        """Multiple victims of the same anomaly (overlapping traces within
        the incident window) produce one incident, not one each."""
        net, analyzer, victim = backpressured_line()
        net.run(msec(8))
        bursts_of_triggers = len(analyzer.agent.triggers)
        assert bursts_of_triggers >= 2
        # Far fewer incidents than triggers: complaints were coalesced.
        assert len(analyzer.incidents) < bursts_of_triggers
        assert any(len(i.victims) >= 2 for i in analyzer.incidents)

    def test_incident_lookup_by_victim(self):
        net, analyzer, victim = backpressured_line()
        net.run(msec(8))
        all_victims = {v for i in analyzer.incidents for v in i.victims}
        assert victim.key in all_victims
        assert analyzer.incidents_for(victim.key)

    def test_summary_renders(self):
        net, analyzer, victim = backpressured_line()
        net.run(msec(8))
        text = analyzer.summary()
        assert "incident" in text
        assert "pfc" in text

    def test_healthy_network_produces_no_incidents(self, tiny_net):
        analyzer = deploy_analyzer(tiny_net)
        tiny_net.start_flow(tiny_net.make_flow("A", "B", 50 * KB, usec(1)))
        tiny_net.run(msec(5))
        assert analyzer.incidents == []

    def test_separated_anomalies_separate_incidents(self):
        """Two storms far apart in time become two incidents."""
        topo = build_line(num_switches=3, hosts_per_switch=4)
        net = Network(topo)
        analyzer = deploy_analyzer(net)
        # One feeder per storm so the frozen port blocks live traffic.
        net.start_flow(net.make_flow("H1_0", "H3_0", 2_000 * KB, usec(1), src_port=1))
        net.hosts["H3_0"].start_pfc_injection(usec(600))
        net.start_flow(net.make_flow("H1_0", "H3_0", 2_000 * KB, msec(4), src_port=2))
        net.sim.schedule(
            msec(4) + usec(10), lambda: net.hosts["H3_0"].start_pfc_injection(usec(600))
        )
        net.run(msec(8))
        assert len(analyzer.incidents) >= 2


@pytest.fixture(scope="module")
def recorded_run():
    """One backpressured run, with every per-victim diagnosis recorded."""
    calls = []

    def recording_diagnose_one(victim, trigger, *args, **kwargs):
        outcome = runner._diagnose_one(victim, trigger, *args, **kwargs)
        calls.append((victim, trigger, outcome))
        return outcome

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(analyzer_module, "_diagnose_one", recording_diagnose_one)
        net, analyzer, _ = backpressured_line()
        net.run(msec(8))
    return analyzer, calls


class TestOneDiagnosisPath:
    """The analyzer diagnoses each victim through the runner's per-victim
    path, the one ``repro run`` and ``repro serve`` use."""

    def test_each_victim_is_diagnosed_once_at_the_incident_trigger(self, recorded_run):
        analyzer, calls = recorded_run
        expected = [
            (victim, incident.first_trigger)
            for incident in analyzer.incidents
            for victim in dict.fromkeys(incident.victims)
        ]
        assert expected
        assert [(victim, trigger) for victim, trigger, _ in calls] == expected

    def test_the_incident_keeps_its_most_severe_victim_diagnosis(self, recorded_run):
        analyzer, calls = recorded_run
        (incident,) = analyzer.diagnosed_incidents()
        outcomes = [o for _, _, o in calls if o.diagnosis.findings]
        chosen = next(o for o in outcomes if o.diagnosis is incident.diagnosis)
        assert incident.annotated is chosen.annotated
        severities = [o.diagnosis.primary().severity for o in outcomes]
        assert incident.diagnosis.primary().severity == max(severities)

    def test_a_fully_deployed_fabric_reads_full_confidence(self, recorded_run):
        analyzer, _ = recorded_run
        for incident in analyzer.diagnosed_incidents():
            assert incident.diagnosis.confidence == "full"
            assert incident.diagnosis.missing_switches == []
            assert "confidence: degraded" not in incident.describe()

    def test_incident_switches_cover_every_victim_trace(self, recorded_run):
        analyzer, _ = recorded_run
        for incident in analyzer.incidents:
            for victim in incident.victims:
                assert analyzer.engine.switches_traced_for(victim) <= incident.switches

    def test_every_stage_runs_once_per_victim_diagnosis(self, recorded_run):
        analyzer, calls = recorded_run
        stages = analyzer.metrics.stages()
        assert set(stages) == {"select_reports", "graph_build", "diagnose", "qualify"}
        assert {stage["calls"] for stage in stages.values()} == {len(calls)}


def hand_built_analyzer(net, switches=None, config=None):
    deployment = HawkeyeDeployment(net, config, switches=switches)
    collector = TelemetryCollector(deployment)
    engine = PollingEngine(net, deployment)
    engine.add_mirror_listener(collector.on_polling_mirror)
    return AnalyzerService(net, DetectionAgent(net), engine, collector)


class TestQualifiedIncidents:
    def test_switch_missing_from_victim_path_degrades_the_verdict(self):
        """The SW1->SW2 link is the bottleneck and every complaining flow
        ends behind SW3, which runs no Hawkeye: the PFC causality is
        complete, but the victims' own paths are not covered."""
        net = Network(build_line(num_switches=3, hosts_per_switch=4))
        analyzer = hand_built_analyzer(net, switches=["SW1", "SW2"])
        senders = [("H1_1", "H3_1"), ("H1_2", "H3_2"), ("H2_0", "H3_3"), ("H2_1", "H3_1")]
        for i, (src, dst) in enumerate(senders):
            net.start_flow(net.make_flow(src, dst, 500 * KB, usec(10), src_port=11000 + i))
        net.start_flow(net.make_flow("H1_0", "H3_0", 300 * KB, usec(5), src_port=12000))
        net.run(msec(8))
        (incident,) = analyzer.diagnosed_incidents()
        diagnosis = incident.diagnosis
        assert diagnosis.primary().anomaly is AnomalyType.MICRO_BURST_INCAST
        assert diagnosis.confidence == "degraded"
        assert diagnosis.missing_switches == ["SW3"]
        assert "confidence: degraded" in incident.describe()

    def test_switch_missing_mid_pfc_path_is_named(self):
        """SW2 carries the pause from the incast at SW3 back to the victim
        at SW1; without its telemetry the verdict is degraded and says so."""
        net = Network(build_line(num_switches=3, hosts_per_switch=4))
        analyzer = hand_built_analyzer(net, switches=["SW1", "SW3"])
        for i, src in enumerate(["H1_1", "H2_0", "H2_1", "H2_2", "H3_1", "H3_2"]):
            net.start_flow(net.make_flow(src, "H3_0", 500 * KB, usec(10), src_port=11000 + i))
        net.start_flow(net.make_flow("H1_0", "H2_1", 300 * KB, usec(5), src_port=12000))
        net.run(msec(8))
        (incident,) = analyzer.diagnosed_incidents()
        assert incident.diagnosis.confidence == "degraded"
        assert incident.diagnosis.missing_switches == ["SW2"]
        assert "SW2" not in incident.switches

    def test_run_config_follows_the_deployment_epoch_ring(self):
        net = Network(build_line(num_switches=2, hosts_per_switch=2))
        scheme = EpochScheme(shift=18)
        analyzer = hand_built_analyzer(net, config=TelemetryConfig(scheme=scheme))
        assert analyzer.config.epoch_size_ns == scheme.epoch_size_ns
        assert analyzer.config.scheme() == scheme

    def test_epoch_ring_a_run_config_cannot_describe_is_refused(self):
        net = Network(build_line(num_switches=2, hosts_per_switch=2))
        config = TelemetryConfig(scheme=EpochScheme(index_bits=3))
        with pytest.raises(ValueError, match="epoch ring"):
            hand_built_analyzer(net, config=config)
