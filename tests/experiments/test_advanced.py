"""Advanced harness scenarios: concurrent anomalies, partial deployment,
probe-driven periodic diagnosis, load robustness."""

import pytest

from repro.collection import (
    DetectionAgent,
    PollingConfig,
    PollingEngine,
    ProbeMesh,
    ProbeMeshConfig,
    TelemetryCollector,
)
from repro.core import AnomalyType, Diagnoser, build_provenance
from repro.experiments import (
    RunConfig,
    diagnosis_correct,
    run_scenario,
    select_reports,
)
from repro.sim import Network
from repro.telemetry import EpochScheme, HawkeyeDeployment, TelemetryConfig
from repro.topology import build_fat_tree
from repro.units import KB, msec, usec
from repro.workloads import incast_backpressure_scenario


class TestConcurrentAnomalies:
    def test_two_disjoint_anomalies_diagnosed_independently(self):
        """§3.4: NPAs without path overlap are collected and diagnosed
        independently.  Two simultaneous incasts in different pods."""
        from repro.sim import SimConfig
        from repro.sim.config import PfcConfig

        topo = build_fat_tree(k=4)
        config = SimConfig(pfc=PfcConfig(xoff_bytes=80 * KB, xon_bytes=40 * KB))
        net = Network(topo, config=config)
        scheme = EpochScheme()
        deployment = HawkeyeDeployment(net, TelemetryConfig(scheme=scheme))
        collector = TelemetryCollector(deployment)
        engine = PollingEngine(net, deployment)
        engine.add_mirror_listener(collector.on_polling_mirror)
        # 200% threshold: three-source incasts degrade the victims ~2.7x.
        agent = DetectionAgent(net, threshold_multiplier=2.0)

        # Anomaly A: incast into pod 0 (sources pod 1); two flows per source
        # so the burst covers both aggregation switches of the victim pod.
        for i, src in enumerate(["H1_0_0", "H1_0_1", "H1_1_0"]):
            for j in range(2):
                net.start_flow(net.make_flow(
                    src, "H0_0_0", 600 * KB, usec(20), src_port=11000 + 2 * i + j))
        victim_a = net.make_flow("H0_1_0", "H0_0_1", 2_000 * KB, usec(10), src_port=12000)
        net.start_flow(victim_a)
        # Anomaly B: incast into pod 3 (sources pod 2).
        for i, src in enumerate(["H2_0_0", "H2_0_1", "H2_1_0"]):
            for j in range(2):
                net.start_flow(net.make_flow(
                    src, "H3_0_0", 600 * KB, usec(20), src_port=13000 + 2 * i + j))
        victim_b = net.make_flow("H3_1_0", "H3_0_1", 2_000 * KB, usec(10), src_port=14000)
        net.start_flow(victim_b)

        net.run(msec(4))
        collector.flush_pending(net.sim.now)

        diagnoser = Diagnoser()
        for victim in (victim_a, victim_b):
            trigger = next(t for t in agent.triggers if t.victim == victim.key)
            raw = select_reports(collector.reports, trigger.time_ns)
            traced = engine.switches_traced_for(victim.key)
            reports = {n: r for n, r in raw.items() if n in traced}
            annotated = build_provenance(
                reports, topo, window_ns=scheme.window_ns,
                victim=victim.key, epoch_size_ns=scheme.epoch_size_ns,
            )
            diagnosis = diagnoser.diagnose(annotated, victim.key)
            primary = diagnosis.primary()
            assert primary.anomaly is AnomalyType.MICRO_BURST_INCAST
        # The two traces touch disjoint pods.
        pods_a = {n[1] for n in engine.switches_traced_for(victim_a.key) if n[0] in "AE"}
        pods_b = {n[1] for n in engine.switches_traced_for(victim_b.key) if n[0] in "AE"}
        assert pods_a == {"0"} and pods_b == {"3"}


class TestPartialDeployment:
    def test_tor_only_flow_telemetry_still_covers_edge_root_causes(self):
        """§5: with Hawkeye everywhere the PFC trace completes; diagnosis of
        a ToR-rooted anomaly works even at reduced flow-table sizing on
        non-ToR switches (here: full stack everywhere, smaller tables)."""
        scenario = incast_backpressure_scenario(seed=1)
        result = run_scenario(scenario, RunConfig(flow_slots=64))
        d = result.diagnosis()
        assert d is not None and diagnosis_correct(d, scenario.truth)

    def test_missing_hawkeye_switch_breaks_trace(self):
        """A non-Hawkeye switch interrupts the polling trace (§5)."""
        scenario = incast_backpressure_scenario(seed=1)
        net = scenario.network
        deployment = HawkeyeDeployment(
            net, switches=[s for s in net.switches if not s.startswith("A")]
        )
        collector = TelemetryCollector(deployment)
        engine = PollingEngine(net, deployment)
        engine.add_mirror_listener(collector.on_polling_mirror)
        DetectionAgent(net)
        net.run(scenario.duration_ns)
        collector.flush_pending(net.sim.now)
        # Aggregation switches dropped every polling packet: the victim's
        # edge switch is reached but nothing beyond it.
        victim = scenario.victims[0]
        traced = engine.switches_traced_for(victim.key)
        assert all(not n.startswith("A") for n in traced)
        assert len(traced) <= 1


class TestProbeDrivenDiagnosis:
    def test_periodic_probing_finds_storm_without_app_traffic(self):
        """§5 operating scenarios: with probes, diagnosis runs periodically
        even when no application complains."""
        topo = build_fat_tree(k=4)
        net = Network(topo)
        deployment = HawkeyeDeployment(net)
        collector = TelemetryCollector(deployment)
        engine = PollingEngine(net, deployment)
        engine.add_mirror_listener(collector.on_polling_mirror)
        agent = DetectionAgent(net)
        mesh = ProbeMesh(net, ProbeMeshConfig(interval_ns=usec(300)))
        mesh.start()

        # Feeder toward the injector so its ToR queue actually blocks.
        net.start_flow(net.make_flow("H1_0_0", "H0_0_0", 400 * KB, usec(10), src_port=9000))
        net.sim.schedule(usec(30), lambda: net.hosts["H0_0_0"].start_pfc_injection(msec(3)))
        net.run(msec(3))
        collector.flush_pending(net.sim.now)

        assert agent.triggers, "stalled probes must trigger diagnosis"
        assert collector.collected_switches(), "telemetry must be collected"


class TestLoadRobustness:
    @pytest.mark.parametrize("load", [0.0, 0.1, 0.2])
    def test_incast_diagnosis_under_background_load(self, load):
        scenario = incast_backpressure_scenario(seed=1, load=load)
        result = run_scenario(scenario, RunConfig())
        d = result.diagnosis()
        assert d is not None
        assert d.primary().anomaly is AnomalyType.MICRO_BURST_INCAST
