"""SimTraceObserver as the fabric's ground-truth recorder: PFC events on a
multi-hop incast, pause-episode spans, and host-injected storms."""

import pytest

from repro.obs import SimTraceObserver, Tracer
from repro.sim import Network
from repro.sim.packet import pause_quanta_to_ns
from repro.topology import PortRef, build_line
from repro.units import KB, msec, usec


def observed(net):
    obs = SimTraceObserver(Tracer())
    net.add_switch_observer(obs)
    return obs


@pytest.fixture(scope="module")
def traced_incast():
    """Multi-hop incast: SW3's host port congests and PFC cascades back, so
    SW2 and SW1 both receive PAUSE frames from downstream."""
    net = Network(build_line(num_switches=3, hosts_per_switch=4))
    obs = observed(net)
    srcs = ["H1_0", "H1_1", "H2_0", "H2_1", "H3_1", "H3_2"]
    for i, src in enumerate(srcs):
        net.start_flow(net.make_flow(src, "H3_0", 300 * KB, usec(1), src_port=10 + i))
    net.run(msec(5))
    obs.finish(net.sim.now)
    return net, obs


def events(obs, kind):
    return [e for e in obs.tracer.events if e.kind == kind]


def paused_ports(obs):
    return sorted(
        {PortRef(s.attrs["switch"], s.attrs["port"]) for s in obs.tracer.spans},
        key=str,
    )


def storm_line(storm_ns, duration_ns):
    """H3_0 floods its ToR with PAUSE frames from 50 us on."""
    net = Network(build_line(num_switches=3, hosts_per_switch=2))
    obs = observed(net)
    net.start_flow(net.make_flow("H1_0", "H3_0", 3_000 * KB, usec(1), src_port=1))
    net.sim.schedule(usec(50), lambda: net.hosts["H3_0"].start_pfc_injection(storm_ns))
    net.run(duration_ns)
    return net, obs


class TestRecording:
    def test_pause_and_resume_recorded(self, traced_incast):
        _, obs = traced_incast
        assert events(obs, "pause_rx") and events(obs, "resume_rx")

    def test_events_match_switch_stats(self, traced_incast):
        net, obs = traced_incast
        switches = net.switches.values()
        assert len(events(obs, "pause_rx")) == sum(s.stats.pause_received for s in switches)
        assert len(events(obs, "resume_rx")) == sum(s.stats.resume_received for s in switches)

    def test_pause_cascades_back_hop_by_hop(self, traced_incast):
        _, obs = traced_incast
        receivers = {e.attrs["switch"] for e in events(obs, "pause_rx")}
        assert {"SW1", "SW2"} <= receivers

    def test_no_pfc_no_events(self, tiny_net):
        obs = observed(tiny_net)
        tiny_net.start_flow(tiny_net.make_flow("A", "B", 20 * KB, usec(1)))
        tiny_net.run(msec(1))
        obs.finish(tiny_net.sim.now)
        assert events(obs, "pause_rx") == [] and events(obs, "resume_rx") == []
        assert obs.tracer.spans == []


class TestPauseSpans:
    def test_spans_well_formed_and_disjoint(self, traced_incast):
        _, obs = traced_incast
        ports = paused_ports(obs)
        assert ports
        for port in ports:
            spans = obs.pause_spans(port)
            assert spans
            assert all(end >= start for start, end in spans)
            for (_, e1), (s2, _) in zip(spans, spans[1:]):
                assert s2 >= e1

    def test_span_opens_at_a_pause_frame(self, traced_incast):
        _, obs = traced_incast
        for port in paused_ports(obs):
            pause_times = {
                e.time_ns
                for e in events(obs, "pause_rx")
                if (e.attrs["switch"], e.attrs["port"]) == (port.node, port.port)
            }
            assert {start for start, _ in obs.pause_spans(port)} <= pause_times

    def test_total_paused_positive_under_congestion(self, traced_incast):
        _, obs = traced_incast
        port = paused_ports(obs)[0]
        assert sum(end - start for start, end in obs.pause_spans(port)) > 0

    def test_spans_filtered_by_port(self, traced_incast):
        _, obs = traced_incast
        per_port = sum(len(obs.pause_spans(port)) for port in paused_ports(obs))
        assert per_port == len(obs.tracer.spans)

    def test_unpaused_port_has_no_spans(self, traced_incast):
        _, obs = traced_incast
        assert obs.pause_spans(PortRef("SW2", 99)) == []


class TestHostStorm:
    def test_open_episode_listed_after_finish(self):
        net, obs = storm_line(storm_ns=msec(5), duration_ns=msec(1))
        tor_port = net.topology.attachment_of("H3_0")
        # Refreshed every half quanta, the storm is one episode still open.
        assert obs.pause_spans(tor_port) == []
        obs.finish(net.sim.now)
        spans = obs.pause_spans(tor_port)
        assert len(spans) == 1
        start, end = spans[0]
        assert usec(50) <= start < end <= net.sim.now

    def test_lapsed_episode_ends_at_quanta_expiry(self):
        net, obs = storm_line(storm_ns=usec(100), duration_ns=msec(2))
        obs.finish(net.sim.now)
        tor_port = net.topology.attachment_of("H3_0")
        last = max(
            (e for e in events(obs, "pause_rx")
             if (e.attrs["switch"], e.attrs["port"]) == (tor_port.node, tor_port.port)),
            key=lambda e: e.time_ns,
        )
        bandwidth = net.switches[tor_port.node].ports[tor_port.port].bandwidth
        expiry = last.time_ns + pause_quanta_to_ns(last.attrs["quanta"], bandwidth)
        assert obs.pause_spans(tor_port)[-1][1] == expiry
