"""Polling engine tests: victim-path forwarding, flag upgrade, causality
multicast, dedup, partial deployment."""

import pytest

from repro.collection import PollingConfig, PollingEngine, TelemetryCollector
from repro.sim import Network, PollingFlag
from repro.telemetry import HawkeyeDeployment
from repro.topology import build_line
from repro.units import KB, msec, usec


def make_line_net(hosts=4):
    topo = build_line(num_switches=3, hosts_per_switch=hosts)
    return topo, Network(topo)


def deploy(net, polling_config=None, switches=None):
    dep = HawkeyeDeployment(net, switches=switches)
    collector = TelemetryCollector(dep)
    engine = PollingEngine(net, dep, polling_config)
    engine.add_mirror_listener(collector.on_polling_mirror)
    return dep, collector, engine


class TestVictimPathForwarding:
    def test_polling_walks_victim_path(self):
        topo, net = make_line_net()
        dep, collector, engine = deploy(net)
        flow = net.make_flow("H1_0", "H3_0", 20 * KB, usec(1))
        net.start_flow(flow)
        net.run(usec(200))
        net.hosts["H1_0"].inject_polling(flow.key, PollingFlag.VICTIM_PATH)
        net.run(net.sim.now + msec(1))
        collector.flush_pending(net.sim.now)
        assert collector.collected_switches() == ["SW1", "SW2", "SW3"]

    def test_no_pfc_no_causality_branching(self):
        topo, net = make_line_net()
        dep, collector, engine = deploy(net)
        flow = net.make_flow("H1_0", "H3_0", 20 * KB, usec(1))
        net.start_flow(flow)
        net.run(usec(200))
        net.hosts["H1_0"].inject_polling(flow.key, PollingFlag.VICTIM_PATH)
        net.run(net.sim.now + msec(1))
        # Unloaded network: polling forwarded once per victim-path hop only
        # (SW3's egress faces the destination host, so nothing leaves SW3).
        assert engine.polling_packets_forwarded == 2

    def test_flag_upgraded_when_victim_paused(self):
        topo, net = make_line_net()
        dep, collector, engine = deploy(net)
        # Oversubscribe SW3's host port so PFC pauses the victim upstream.
        victim = net.make_flow("H1_0", "H3_0", 400 * KB, usec(1), src_port=1)
        net.start_flow(victim)
        for i, src in enumerate(["H2_0", "H2_1", "H3_1", "H3_2"]):
            net.start_flow(net.make_flow(src, "H3_0", 400 * KB, usec(1), src_port=10 + i))
        net.run(usec(100))
        net.hosts["H1_0"].inject_polling(victim.key, PollingFlag.VICTIM_PATH)
        before = net.switch("SW2").stats.polling_seen
        net.run(net.sim.now + usec(100))
        assert net.switch("SW2").stats.polling_seen > before

    def test_dedup_drops_duplicate_polling(self):
        topo, net = make_line_net()
        dep, collector, engine = deploy(net)
        flow = net.make_flow("H1_0", "H3_0", 20 * KB, usec(1))
        net.start_flow(flow)
        net.run(usec(200))
        net.hosts["H1_0"].inject_polling(flow.key, PollingFlag.VICTIM_PATH)
        net.hosts["H1_0"].inject_polling(flow.key, PollingFlag.VICTIM_PATH)
        net.run(net.sim.now + msec(1))
        assert engine.polling_packets_suppressed > 0
        assert engine.polling_packets_forwarded == 2  # second copy went nowhere

    def test_dropped_alias_is_gone(self):
        topo, net = make_line_net()
        dep, collector, engine = deploy(net)
        flow = net.make_flow("H1_0", "H3_0", 20 * KB, usec(1))
        net.start_flow(flow)
        net.run(usec(200))
        net.hosts["H1_0"].inject_polling(flow.key, PollingFlag.VICTIM_PATH)
        net.hosts["H1_0"].inject_polling(flow.key, PollingFlag.VICTIM_PATH)
        net.run(net.sim.now + msec(1))
        # Dedup suppressions have one name; the old "dropped" alias is gone.
        assert engine.polling_packets_suppressed > 0
        assert not hasattr(engine, "polling_packets_dropped")

    def test_reset_victim_reopens_dedup(self):
        topo, net = make_line_net()
        dep, collector, engine = deploy(net)
        flow = net.make_flow("H1_0", "H3_0", 20 * KB, usec(1))
        net.start_flow(flow)
        net.run(usec(200))
        net.hosts["H1_0"].inject_polling(flow.key, PollingFlag.VICTIM_PATH)
        net.run(net.sim.now + msec(1))
        assert engine.polling_packets_forwarded == 2
        # Within the dedup interval a plain re-injection goes nowhere, but a
        # reset (a retransmission's new trace generation) re-walks the path.
        engine.reset_victim(flow.key)
        net.hosts["H1_0"].inject_polling(flow.key, PollingFlag.VICTIM_PATH)
        net.run(net.sim.now + msec(1))
        assert engine.polling_packets_forwarded == 4
        assert engine.polling_packets_suppressed == 0

    def test_trace_pfc_disabled_never_upgrades(self):
        topo, net = make_line_net()
        dep, collector, engine = deploy(net, PollingConfig(trace_pfc=False))
        victim = net.make_flow("H1_0", "H3_0", 400 * KB, usec(1), src_port=1)
        net.start_flow(victim)
        for i, src in enumerate(["H2_0", "H2_1", "H3_1", "H3_2"]):
            net.start_flow(net.make_flow(src, "H3_0", 400 * KB, usec(1), src_port=10 + i))
        net.run(msec(1))
        net.hosts["H1_0"].inject_polling(victim.key, PollingFlag.VICTIM_PATH)
        net.run(net.sim.now + msec(1))
        collector.flush_pending(net.sim.now)
        # Victim-path only: exactly the three path switches, even under PFC.
        assert set(collector.collected_switches()) <= {"SW1", "SW2", "SW3"}


class TestPartialDeployment:
    def test_trace_stops_at_non_hawkeye_switch(self):
        topo, net = make_line_net()
        dep, collector, engine = deploy(net, switches=["SW1", "SW3"])
        flow = net.make_flow("H1_0", "H3_0", 20 * KB, usec(1))
        net.start_flow(flow)
        net.run(usec(200))
        net.hosts["H1_0"].inject_polling(flow.key, PollingFlag.VICTIM_PATH)
        net.run(net.sim.now + msec(1))
        collector.flush_pending(net.sim.now)
        # SW2 has no polling handler: it drops the packet, so SW3 is never
        # reached (§5's partial-deployment limitation).
        assert collector.collected_switches() == ["SW1"]


class TestMirrorListeners:
    def test_every_polling_packet_mirrored(self):
        topo, net = make_line_net()
        dep = HawkeyeDeployment(net)
        mirrors = []
        engine = PollingEngine(net, dep)
        engine.add_mirror_listener(lambda sw, pkt, now: mirrors.append(sw))
        flow = net.make_flow("H1_0", "H3_0", 20 * KB, usec(1))
        net.start_flow(flow)
        net.run(usec(200))
        net.hosts["H1_0"].inject_polling(flow.key, PollingFlag.VICTIM_PATH)
        net.run(net.sim.now + msec(1))
        assert mirrors == ["SW1", "SW2", "SW3"]
