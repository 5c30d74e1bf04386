"""Network wiring and end-to-end transport behaviour."""

import pytest

from repro.experiments import run_scenario
from repro.sim import Network, PacketType, SwitchObserver
from repro.units import KB, msec, usec
from repro.workloads import SCENARIO_BUILDERS


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

    def test_every_port_and_uplink_wired_to_its_peer_receive(self, fat_tree):
        net = Network(fat_tree)
        nodes = {**net.switches, **net.hosts}
        for sw in net.switches.values():
            for port in sw.ports.values():
                assert port.peer_receive == nodes[port.peer.node].receive
        for host in net.hosts.values():
            assert host._peer_receive == nodes[host.peer.node].receive

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


class _EgressLog(SwitchObserver):
    """Egress port of each enqueued frame of one type, in enqueue order."""

    def __init__(self, ptype):
        self.ptype = ptype
        self.ports = []

    def on_egress_enqueue(self, sw, t, pkt, eport, iport, qd, qb, paused):
        if pkt.ptype is self.ptype:
            self.ports.append(eport)


def _other_uplink(topology, switch, natural):
    (other,) = [
        port
        for port, peer in topology.neighbors(switch)
        if topology.node(peer.node).is_switch and port != natural
    ]
    return other


class TestRouteMemo:
    """A switch memoizes each flow's egress per direction; a static route
    set or cleared mid-flow must reach the very next frame."""

    def _override_and_restore(self, fat_tree, switch, ptype, dst_ip_of):
        net = Network(fat_tree)
        log = _EgressLog(ptype)
        net.add_switch_observer(log, [switch])
        flow = net.make_flow("H0_0_0", "H3_1_1", 1000 * KB, usec(1))
        net.start_flow(flow)
        while not log.ports:
            net.run(net.sim.now + usec(1))
        before = len(log.ports)
        natural = log.ports[0]
        other = _other_uplink(fat_tree, switch, natural)

        net.routing.set_static_route(switch, dst_ip_of(flow.key), other)
        net.run(net.sim.now + usec(10))
        moved = len(log.ports)
        assert set(log.ports[:before]) == {natural}
        assert moved > before and set(log.ports[before:]) == {other}

        net.routing.clear_static_route(switch, dst_ip_of(flow.key))
        net.run(msec(5))
        assert flow.completed
        assert len(log.ports) > moved and set(log.ports[moved:]) == {natural}

    def test_data_direction(self, fat_tree):
        self._override_and_restore(
            fat_tree, "E0_0", PacketType.DATA, lambda key: key.dst_ip
        )

    def test_ack_direction(self, fat_tree):
        self._override_and_restore(
            fat_tree, "E3_1", PacketType.ACK, lambda key: key.src_ip
        )


def test_perf_caches_carry_no_sim_rows():
    """Pause durations are computed, not memoized, and routes live in the
    switches' memos: neither reports hit/miss rows any more."""
    result = run_scenario(SCENARIO_BUILDERS["pfc-storm"](seed=1))
    assert result.perf.caches
    assert "pause_quanta" not in result.perf.caches
    assert "ecmp_select" not in result.perf.caches
