"""Host/NIC model tests: pacing, ACKs, RTT, PFC honouring and injection."""

import pytest

from repro.sim import DATA_PRIORITY, Network, Packet
from repro.units import KB, gbps, msec, serialization_delay_ns, usec
from tests.conftest import build_tiny


class TestFlowTransmission:
    def test_flow_completes(self, tiny_net):
        flow = tiny_net.make_flow("A", "B", 100 * KB, usec(1))
        tiny_net.start_flow(flow)
        tiny_net.run(msec(2))
        assert flow.completed
        assert flow.bytes_acked == flow.size

    def test_line_rate_fct(self, tiny_net):
        # 100 KB at 100 Gbps through one switch: ~8 us + small overheads.
        flow = tiny_net.make_flow("A", "B", 100 * KB, 0)
        tiny_net.start_flow(flow)
        tiny_net.run(msec(2))
        assert flow.fct() < usec(30)

    def test_last_packet_smaller_than_mtu(self, tiny_net):
        flow = tiny_net.make_flow("A", "B", 2500, usec(1))  # 2.5 packets
        tiny_net.start_flow(flow)
        tiny_net.run(msec(1))
        assert flow.completed
        assert flow.packets_sent == 3

    @pytest.mark.parametrize("rate_gbps", [10, 25, 100])
    def test_uplink_wire_time_table(self, rate_gbps, monkeypatch):
        """The host's size -> ns table is ``serialization_delay_ns`` at the
        uplink's bandwidth, 1 ns floor and flow-tail sizes included."""
        mtu = 1500
        monkeypatch.setattr("repro.sim.host.DATA_PACKET_SIZE", mtu)
        bandwidth = gbps(rate_gbps)
        net = Network(build_tiny(bandwidth))
        flows = [
            net.make_flow("A", "B", size, usec(1), src_port=10000 + i)
            for i, size in enumerate((1, 64, 1000, mtu + 37))
        ]
        for flow in flows:
            net.start_flow(flow)
        net.run(msec(1))
        assert all(flow.completed for flow in flows)
        table = net.host("A")._ser_ns
        assert table == {
            size: serialization_delay_ns(size, bandwidth)
            for size in (1, 64, 1000, mtu, 37)
        }
        assert table[1] == 1  # the 1 ns floor
        # Re-attaching the uplink at another speed must not reuse the table.
        host = net.host("A")
        host.attach_uplink(bandwidth / 2, host.delay_ns, host.peer)
        assert host._ser_ns == {}

    def test_rate_capped_flow_is_slower(self, tiny_topo):
        from repro.sim import Network

        net = Network(tiny_topo)
        capped = net.make_flow("A", "B", 100 * KB, 0)
        capped.max_rate = net.hosts["A"].bandwidth / 10
        net.start_flow(capped)
        net.run(msec(2))
        assert capped.completed
        assert capped.fct() > usec(70)  # ~10x slower than line rate

    def test_two_flows_share_nic(self, tiny_net):
        f1 = tiny_net.make_flow("A", "B", 50 * KB, 0, src_port=1)
        f2 = tiny_net.make_flow("A", "B", 50 * KB, 0, src_port=2)
        tiny_net.start_flow(f1)
        tiny_net.start_flow(f2)
        tiny_net.run(msec(2))
        assert f1.completed and f2.completed

    def test_flow_must_originate_at_host(self, tiny_net):
        flow = tiny_net.make_flow("A", "B", 10 * KB, 0)
        with pytest.raises(ValueError):
            tiny_net.hosts["B"].start_flow(flow)

    def test_deferred_start_time(self, tiny_net):
        flow = tiny_net.make_flow("A", "B", 10 * KB, usec(500))
        tiny_net.start_flow(flow)
        tiny_net.run(usec(400))
        assert flow.bytes_sent == 0
        tiny_net.run(msec(2))
        assert flow.completed
        assert flow.finish_time > usec(500)


class TestAcksAndRtt:
    def test_rtt_samples_recorded(self, tiny_net):
        flow = tiny_net.make_flow("A", "B", 40 * KB, 0)
        tiny_net.start_flow(flow)
        tiny_net.run(msec(1))
        assert flow.rtt_samples
        assert flow.latest_rtt() > 0

    def test_rtt_close_to_estimate_when_unloaded(self, tiny_net):
        flow = tiny_net.make_flow("A", "B", 40 * KB, 0)
        tiny_net.start_flow(flow)
        tiny_net.run(msec(1))
        estimate = tiny_net.estimate_base_rtt("A", flow.key.dst_ip, flow.key)
        assert max(r for _, r in flow.rtt_samples) <= 2 * estimate

    def test_ack_coalescing(self, tiny_topo, monkeypatch):
        monkeypatch.setattr("repro.sim.host.ACK_EVERY_PACKETS", 8)
        net = Network(tiny_topo)
        flow = net.make_flow("A", "B", 64 * KB, 0)  # 64 packets
        net.start_flow(flow)
        net.run(msec(1))
        assert flow.completed
        # 64 pkts / 8 per ACK = 8 samples (last pkt forces one too).
        assert len(flow.rtt_samples) == 8

    def test_rtt_listener_invoked(self, tiny_net):
        seen = []
        tiny_net.hosts["A"].rtt_listeners.append(
            lambda flow, now, rtt: seen.append(rtt)
        )
        tiny_net.start_flow(tiny_net.make_flow("A", "B", 40 * KB, 0))
        tiny_net.run(msec(1))
        assert seen

    def test_completion_listener_invoked(self, tiny_net):
        done = []
        tiny_net.hosts["A"].completion_listeners.append(
            lambda flow, now: done.append(flow.key)
        )
        flow = tiny_net.make_flow("A", "B", 10 * KB, 0)
        tiny_net.start_flow(flow)
        tiny_net.run(msec(1))
        assert done == [flow.key]

    def test_rtt_sample_cap(self, tiny_net):
        flow = tiny_net.make_flow("A", "B", 500 * KB, 0)
        flow.max_rtt_samples = 16
        tiny_net.start_flow(flow)
        tiny_net.run(msec(5))
        assert len(flow.rtt_samples) <= 16


class TestHostPfc:
    def test_host_honours_pause(self, tiny_net):
        host = tiny_net.hosts["A"]
        flow = tiny_net.make_flow("A", "B", 100 * KB, usec(1))
        tiny_net.start_flow(flow)
        host.receive(Packet.pfc(DATA_PRIORITY, 0xFFFF, 0))
        tiny_net.run(usec(50))
        sent_during_pause = flow.bytes_sent
        assert sent_during_pause < flow.size

    def test_host_resumes_after_pause_expiry(self, tiny_net):
        host = tiny_net.hosts["A"]
        flow = tiny_net.make_flow("A", "B", 100 * KB, usec(1))
        tiny_net.start_flow(flow)
        host.receive(Packet.pfc(DATA_PRIORITY, 200, 0))
        tiny_net.run(msec(3))
        assert flow.completed

    def test_pfc_injection_emits_pauses(self, tiny_net):
        host = tiny_net.hosts["A"]
        host.start_pfc_injection(msec(1))
        tiny_net.run(msec(2))
        assert host.injected_pause_frames > 1

    def test_pfc_injection_blocks_traffic_to_injector(self, tiny_net):
        tiny_net.hosts["A"].start_pfc_injection(msec(5))
        flow = tiny_net.make_flow("B", "A", 100 * KB, usec(10))
        tiny_net.start_flow(flow)
        tiny_net.run(msec(3))
        assert not flow.completed
        sw = tiny_net.switch("SW")
        port = tiny_net.topology.attachment_of("A").port
        assert sw.egress_queue_bytes(port) > 0

    def test_injection_stops_after_duration(self, tiny_net):
        host = tiny_net.hosts["A"]
        host.start_pfc_injection(usec(100))
        tiny_net.run(msec(1))
        count = host.injected_pause_frames
        tiny_net.run(msec(2))
        assert host.injected_pause_frames == count

    def test_traffic_recovers_after_short_injection(self, tiny_net):
        tiny_net.hosts["A"].start_pfc_injection(usec(200))
        flow = tiny_net.make_flow("B", "A", 100 * KB, usec(10))
        tiny_net.start_flow(flow)
        tiny_net.run(msec(5))
        assert flow.completed
