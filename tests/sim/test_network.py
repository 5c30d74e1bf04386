"""Network wiring and end-to-end transport behaviour."""

import pytest

from repro.sim import Network
from repro.units import KB, msec, usec


class TestWiring:
    def test_every_switch_and_host_built(self, fat_tree):
        net = Network(fat_tree)
        assert set(net.switches) == {s.name for s in fat_tree.switches}
        assert set(net.hosts) == {h.name for h in fat_tree.hosts}

    def test_switch_ports_match_topology(self, fat_tree):
        net = Network(fat_tree)
        for sw in fat_tree.switches:
            connected = {p for p, _ in fat_tree.neighbors(sw.name)}
            assert set(net.switch(sw.name).ports) == connected

    def test_host_uplink_attached(self, fat_tree):
        net = Network(fat_tree)
        host = net.host("H0_0_0")
        assert host.bandwidth > 0
        assert host.peer == fat_tree.attachment_of("H0_0_0")

    def test_make_flow_resolves_ips(self, dumbbell_net):
        flow = dumbbell_net.make_flow("HL0", "HR1", 10 * KB, 0)
        assert flow.key.src_ip == dumbbell_net.topology.host_ip("HL0")
        assert flow.key.dst_ip == dumbbell_net.topology.host_ip("HR1")


class TestTransport:
    def test_cross_fabric_delivery(self, fat_tree):
        net = Network(fat_tree)
        flow = net.make_flow("H0_0_0", "H3_1_1", 100 * KB, usec(1))
        net.start_flow(flow)
        net.run(msec(3))
        assert flow.completed

    def test_many_concurrent_flows_all_complete(self, fat_tree):
        net = Network(fat_tree)
        hosts = [h.name for h in fat_tree.hosts]
        flows = []
        for i in range(24):
            src = hosts[i % len(hosts)]
            dst = hosts[(i * 7 + 3) % len(hosts)]
            if src == dst:
                dst = hosts[(i * 7 + 4) % len(hosts)]
            f = net.make_flow(src, dst, 50 * KB, usec(i), src_port=20000 + i)
            flows.append(f)
            net.start_flow(f)
        net.run(msec(10))
        assert all(f.completed for f in flows)

    def test_conservation_no_data_loss(self, line3):
        """Lossless fabric: every sent byte is eventually acked."""
        net = Network(line3)
        flows = [
            net.make_flow("H1_0", "H3_0", 300 * KB, usec(1), src_port=1),
            net.make_flow("H1_1", "H3_1", 300 * KB, usec(2), src_port=2),
            net.make_flow("H2_0", "H3_0", 300 * KB, usec(3), src_port=3),
        ]
        for f in flows:
            net.start_flow(f)
        net.run(msec(10))
        for f in flows:
            assert f.bytes_acked == f.size


class TestBaseRttEstimate:
    def test_estimate_positive_and_reasonable(self, fat_tree):
        net = Network(fat_tree)
        est = net.estimate_base_rtt("H0_0_0", fat_tree.host_ip("H3_1_1"))
        # 6 links each way, 2 us propagation each: at least 24 us.
        assert est > usec(24)
        assert est < usec(60)

    def test_intra_edge_smaller_than_inter_pod(self, fat_tree):
        net = Network(fat_tree)
        near = net.estimate_base_rtt("H0_0_0", fat_tree.host_ip("H0_0_1"))
        far = net.estimate_base_rtt("H0_0_0", fat_tree.host_ip("H3_1_1"))
        assert near < far

    def test_max_base_rtt_upper_bounds_pairs(self, fat_tree):
        net = Network(fat_tree)
        worst = net.max_base_rtt()
        assert worst >= net.estimate_base_rtt("H0_0_0", fat_tree.host_ip("H3_1_1"))
