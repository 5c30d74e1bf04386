"""Analyzer service tests: continuous diagnosis, incident dedup."""

import pytest

from repro.core import AnomalyType
from repro.experiments import deploy_analyzer
from repro.sim import Network
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
