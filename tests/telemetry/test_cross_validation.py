"""Cross-validation: the switch telemetry against the omniscient tracer.

The tracer sees every event; the telemetry sees only what its registers
can afford.  Where their scopes overlap they must agree — these tests pin
the consistency contract between the two observers.
"""

import pytest

from repro.obs import SimTraceObserver, Tracer
from repro.sim import Network
from repro.telemetry import HawkeyeDeployment
from repro.topology import PortRef, build_line
from repro.units import KB, msec, usec


@pytest.fixture
def observed_run():
    """A cascaded-congestion run observed by telemetry AND tracer."""
    net = Network(build_line(num_switches=3, hosts_per_switch=4))
    deployment = HawkeyeDeployment(net)
    tracer = SimTraceObserver(Tracer())
    net.add_switch_observer(tracer)
    srcs = ["H1_0", "H1_1", "H2_0", "H2_1", "H3_1", "H3_2"]
    flows = []
    for i, src in enumerate(srcs):
        f = net.make_flow(src, "H3_0", 300 * KB, usec(1), src_port=10 + i)
        flows.append(f)
        net.start_flow(f)
    net.run(msec(2))
    tracer.finish(net.sim.now)
    return net, deployment, tracer, flows


class TestConsistency:
    def test_flow_packet_counts_match_reality(self, observed_run):
        net, deployment, tracer, flows = observed_run
        now = net.sim.now
        # Each flow's packets through its first switch equal packets sent
        # (lossless network: nothing disappears).
        for flow in flows:
            first_switch = net.topology.attachment_of(flow.src_host).node
            report = deployment.for_switch(first_switch).snapshot(now)
            counted = sum(
                e.pkt_count for (k, _p), e in report.agg_flows().items() if k == flow.key
            )
            assert counted == flow.packets_sent

    def test_port_counts_equal_flow_sums(self, observed_run):
        net, deployment, tracer, flows = observed_run
        now = net.sim.now
        for name in net.switches:
            report = deployment.for_switch(name).snapshot(now)
            flow_sum = {}
            for (key, port), entry in report.agg_flows().items():
                flow_sum[port] = flow_sum.get(port, 0) + entry.pkt_count
            for port, entry in report.agg_ports().items():
                assert entry.pkt_count == flow_sum.get(port, 0)

    def test_paused_counts_match_tracer_events(self, observed_run):
        """Telemetry's paused-enqueue counters equal the tracer's count of
        paused enqueue events (the tracer sees every enqueue)."""
        net, deployment, tracer, flows = observed_run
        now = net.sim.now
        for name in net.switches:
            report = deployment.for_switch(name).snapshot(now)
            telemetry_paused = sum(
                e.paused_count for e in report.agg_ports().values()
            )
            traced_paused = sum(
                1
                for e in tracer.tracer.events
                if e.kind == "pkt_enqueue"
                and e.attrs["switch"] == name
                and e.attrs["paused"]
            )
            assert telemetry_paused == traced_paused

    def test_pause_rx_counters_match_tracer_events(self, observed_run):
        net, deployment, tracer, flows = observed_run
        now = net.sim.now
        for name in net.switches:
            report = deployment.for_switch(name).snapshot(now)
            telemetry_rx = sum(
                e.pause_rx_count for e in report.agg_ports().values()
            )
            traced_rx = sum(
                1
                for e in tracer.tracer.events
                if e.kind == "pause_rx" and e.attrs["switch"] == name
            )
            assert telemetry_rx == traced_rx

    def test_meter_volumes_equal_switch_byte_counts(self, observed_run):
        net, deployment, tracer, flows = observed_run
        now = net.sim.now
        for name, switch in net.switches.items():
            report = deployment.for_switch(name).snapshot(now)
            meter_total = sum(report.agg_meters().values())
            assert meter_total == switch.stats.data_bytes
