"""Controller-assisted collection tests: dedup, delayed reads, accounting."""

import pytest

from repro.collection import MTU_BYTES, TelemetryCollector
from repro.sim import Network, Packet, PollingFlag
from repro.telemetry import HawkeyeDeployment
from repro.units import KB, msec, usec


def polling_pkt(net, flow):
    return Packet.polling(flow.key, PollingFlag.VICTIM_PATH, net.sim.now)


class TestCollection:
    def test_collect_produces_report(self, tiny_net):
        dep = HawkeyeDeployment(tiny_net)
        collector = TelemetryCollector(dep)
        flow = tiny_net.make_flow("A", "B", 20 * KB, usec(1))
        tiny_net.start_flow(flow)
        tiny_net.run(usec(100))
        report = collector.collect("SW", tiny_net.sim.now)
        assert report.switch == "SW"
        assert report.num_flow_entries() > 0

    def test_mirror_schedules_delayed_read(self, tiny_net):
        dep = HawkeyeDeployment(tiny_net)
        collector = TelemetryCollector(dep, read_delay_ns=usec(50))
        flow = tiny_net.make_flow("A", "B", 20 * KB, usec(1))
        tiny_net.start_flow(flow)
        tiny_net.run(usec(10))
        collector.on_polling_mirror("SW", polling_pkt(tiny_net, flow), tiny_net.sim.now)
        assert collector.reports == []  # not read yet
        tiny_net.run(usec(100))
        assert len(collector.reports) == 1
        assert collector.reports[0].collect_time >= usec(60)

    def test_dedup_interval_suppresses(self, tiny_net):
        dep = HawkeyeDeployment(tiny_net)
        collector = TelemetryCollector(dep, dedup_interval_ns=msec(1), read_delay_ns=0)
        flow = tiny_net.make_flow("A", "B", 20 * KB, usec(1))
        tiny_net.start_flow(flow)
        tiny_net.run(usec(50))
        pkt = polling_pkt(tiny_net, flow)
        collector.on_polling_mirror("SW", pkt, tiny_net.sim.now)
        collector.on_polling_mirror("SW", pkt, tiny_net.sim.now)
        assert collector.stats.collections == 1
        assert collector.stats.suppressed_collections == 1

    def test_collection_allowed_after_interval(self, tiny_net):
        dep = HawkeyeDeployment(tiny_net)
        collector = TelemetryCollector(dep, dedup_interval_ns=usec(10), read_delay_ns=0)
        flow = tiny_net.make_flow("A", "B", 20 * KB, usec(1))
        tiny_net.start_flow(flow)
        tiny_net.run(usec(50))
        collector.on_polling_mirror("SW", polling_pkt(tiny_net, flow), tiny_net.sim.now)
        tiny_net.run(usec(100))
        collector.on_polling_mirror("SW", polling_pkt(tiny_net, flow), tiny_net.sim.now)
        assert collector.stats.collections == 2

    def test_flush_pending(self, tiny_net):
        dep = HawkeyeDeployment(tiny_net)
        collector = TelemetryCollector(dep, read_delay_ns=msec(100))
        flow = tiny_net.make_flow("A", "B", 20 * KB, usec(1))
        tiny_net.start_flow(flow)
        tiny_net.run(usec(50))
        collector.on_polling_mirror("SW", polling_pkt(tiny_net, flow), tiny_net.sim.now)
        tiny_net.run(usec(100))  # far before the scheduled read
        collector.flush_pending(tiny_net.sim.now)
        assert len(collector.reports) == 1

    def test_collect_all(self, line3_net):
        dep = HawkeyeDeployment(line3_net)
        collector = TelemetryCollector(dep, read_delay_ns=0)
        collector.collect_all(0)
        assert collector.collected_switches() == ["SW1", "SW2", "SW3"]


class TestAccounting:
    def test_filtered_smaller_than_full_dump(self, tiny_net):
        dep = HawkeyeDeployment(tiny_net)
        collector = TelemetryCollector(dep, read_delay_ns=0)
        flow = tiny_net.make_flow("A", "B", 20 * KB, usec(1))
        tiny_net.start_flow(flow)
        tiny_net.run(usec(100))
        collector.collect("SW", tiny_net.sim.now)
        assert 0 < collector.stats.filtered_bytes < collector.stats.full_dump_bytes

    def test_cpu_packets_fewer_than_dataplane_packets(self, tiny_net):
        dep = HawkeyeDeployment(tiny_net)
        collector = TelemetryCollector(dep, read_delay_ns=0)
        flow = tiny_net.make_flow("A", "B", 200 * KB, usec(1))
        tiny_net.start_flow(flow)
        tiny_net.run(msec(1))
        collector.collect("SW", tiny_net.sim.now)
        # Fig 14(b): MTU batching beats PHV-limited data-plane generation.
        assert collector.stats.report_packets_cpu < collector.stats.report_packets_dataplane

    def test_report_packets_scale_with_mtu(self, tiny_net):
        dep = HawkeyeDeployment(tiny_net)
        collector = TelemetryCollector(dep, read_delay_ns=0)
        flow = tiny_net.make_flow("A", "B", 20 * KB, usec(1))
        tiny_net.start_flow(flow)
        tiny_net.run(usec(100))
        report = collector.collect("SW", tiny_net.sim.now)
        expected = max(1, -(-report.payload_bytes() // MTU_BYTES))
        assert collector.stats.report_packets_cpu == expected
