"""Switch PFC mechanics: Xoff/Xon, pause propagation, priorities, observers."""

import pytest

from repro.sim import (
    CONTROL_PRIORITY,
    DATA_PRIORITY,
    Network,
    Packet,
    PacketType,
    SimConfig,
    SwitchObserver,
)
from repro.sim.config import PfcConfig
from repro.topology import build_dumbbell, build_line
from repro.units import KB, gbps, msec, serialization_delay_ns, usec
from tests.conftest import build_tiny


class Recorder(SwitchObserver):
    def __init__(self):
        self.enqueues = []
        self.dequeues = []
        self.pfc_rx = []
        self.pfc_tx = []

    def on_egress_enqueue(self, sw, t, pkt, eport, iport, qd, qb, paused):
        self.enqueues.append((sw.name, t, pkt, eport, iport, qd, qb, paused))

    def on_egress_dequeue(self, sw, t, pkt, eport):
        self.dequeues.append((sw.name, t, pkt, eport))

    def on_pfc_received(self, sw, t, port, prio, quanta):
        self.pfc_rx.append((sw.name, t, port, prio, quanta))

    def on_pfc_sent(self, sw, t, port, prio, quanta):
        self.pfc_tx.append((sw.name, t, port, prio, quanta))


def incast_net(hosts_per_side=4, config=None):
    topo = build_dumbbell(hosts_per_side=hosts_per_side)
    return Network(topo, config=config)


class TestXoffXon:
    def test_pause_sent_when_xoff_crossed(self):
        net = incast_net()
        rec = Recorder()
        net.add_switch_observer(rec, ["SW1"])
        for j in range(4):
            net.start_flow(net.make_flow(f"HL{j}", "HR0", 200 * KB, usec(1), src_port=10000 + j))
        net.run(msec(2))
        pauses = [e for e in rec.pfc_tx if e[4] > 0]
        assert pauses, "oversubscribed egress must trigger PAUSE toward hosts"

    def test_resume_follows_pause(self):
        net = incast_net()
        rec = Recorder()
        net.add_switch_observer(rec, ["SW1"])
        for j in range(4):
            net.start_flow(net.make_flow(f"HL{j}", "HR0", 200 * KB, usec(1), src_port=10000 + j))
        net.run(msec(3))
        resumes = [e for e in rec.pfc_tx if e[4] == 0]
        assert resumes, "drained ingress must send RESUME"

    def test_no_pfc_below_xoff(self):
        config = SimConfig(pfc=PfcConfig(xoff_bytes=10_000 * KB, xon_bytes=5_000 * KB))
        net = incast_net(config=config)
        for j in range(4):
            net.start_flow(net.make_flow(f"HL{j}", "HR0", 100 * KB, usec(1), src_port=10000 + j))
        net.run(msec(3))
        assert all(s.stats.pause_sent == 0 for s in net.switches.values())

    def test_xon_must_be_below_xoff(self):
        with pytest.raises(ValueError):
            PfcConfig(xoff_bytes=10 * KB, xon_bytes=10 * KB)

    def test_ingress_accounting_returns_to_zero(self):
        net = incast_net()
        flows = [
            net.make_flow(f"HL{j}", "HR0", 150 * KB, usec(1), src_port=10000 + j)
            for j in range(4)
        ]
        for f in flows:
            net.start_flow(f)
        net.run(msec(5))
        assert all(f.completed for f in flows)
        sw = net.switch("SW1")
        for port in sw.ports:
            assert sw.ingress_occupancy(port) == 0


class TestPausePropagation:
    def test_paused_port_stops_transmitting(self, tiny_net):
        net = tiny_net
        sw = net.switch("SW")
        host_a_port = net.topology.attachment_of("A")
        # Pause the switch's egress toward host A directly.
        frame = Packet.pfc(DATA_PRIORITY, 0xFFFF, 0)
        sw.receive(frame, host_a_port.port)
        flow = net.make_flow("B", "A", 50 * KB, usec(1))
        net.start_flow(flow)
        net.run(usec(100))
        assert flow.bytes_acked == 0
        assert sw.egress_queue_bytes(host_a_port.port) > 0

    def test_resume_restarts_transmission(self, tiny_net):
        net = tiny_net
        sw = net.switch("SW")
        port = net.topology.attachment_of("A").port
        sw.receive(Packet.pfc(DATA_PRIORITY, 0xFFFF, 0), port)
        flow = net.make_flow("B", "A", 50 * KB, usec(1))
        net.start_flow(flow)
        net.run(usec(50))
        sw.receive(Packet.pfc(DATA_PRIORITY, 0, 0), port)
        net.run(msec(1))
        assert flow.completed

    def test_pause_expires_on_its_own(self, tiny_net):
        net = tiny_net
        sw = net.switch("SW")
        port = net.topology.attachment_of("A").port
        sw.receive(Packet.pfc(DATA_PRIORITY, 100, 0), port)  # short pause
        flow = net.make_flow("B", "A", 50 * KB, usec(1))
        net.start_flow(flow)
        net.run(msec(2))
        assert flow.completed, "a non-refreshed pause must lapse"

    def test_control_priority_not_paused(self, tiny_net):
        net = tiny_net
        sw = net.switch("SW")
        port = net.topology.attachment_of("A").port
        sw.receive(Packet.pfc(DATA_PRIORITY, 0xFFFF, 0), port)
        # ACK/CNP-class traffic must flow even while data is paused.
        flow = net.make_flow("A", "B", 10 * KB, usec(1))
        net.start_flow(flow)  # data A->B unaffected; ACKs B->A cross the paused port
        net.run(msec(1))
        assert flow.completed

    def test_cascading_pause_reaches_second_switch(self):
        topo = build_line(num_switches=3, hosts_per_switch=4)
        net = Network(topo)
        # Local senders at SW3 oversubscribe its host port; remote senders
        # keep the inter-switch links loaded so back-pressure must cascade.
        srcs = ["H1_0", "H1_1", "H2_0", "H2_1", "H3_1", "H3_2"]
        for i, s in enumerate(srcs):
            net.start_flow(net.make_flow(s, "H3_0", 400 * KB, usec(5), src_port=11000 + i))
        net.run(msec(4))
        # Congestion at SW3's host port must propagate pauses to SW2 and SW1.
        assert net.switch("SW2").stats.pause_received > 0
        assert net.switch("SW1").stats.pause_received > 0


class TestTelemetryHookContract:
    def test_enqueue_reports_queue_depth_before_insert(self, tiny_net):
        net = tiny_net
        rec = Recorder()
        net.add_switch_observer(rec, ["SW"])
        net.start_flow(net.make_flow("A", "B", 10 * KB, usec(1)))
        net.run(msec(1))
        data = [e for e in rec.enqueues if e[2].ptype is PacketType.DATA]
        assert data[0][5] == 0  # first packet sees an empty queue

    def test_enqueue_reports_ingress_port(self, tiny_net):
        net = tiny_net
        rec = Recorder()
        net.add_switch_observer(rec, ["SW"])
        net.start_flow(net.make_flow("A", "B", 10 * KB, usec(1)))
        net.run(msec(1))
        a_port = net.topology.attachment_of("A").port
        data = [e for e in rec.enqueues if e[2].ptype is PacketType.DATA]
        assert all(e[4] == a_port for e in data)

    def test_dequeue_seen_for_every_enqueue(self, tiny_net):
        net = tiny_net
        rec = Recorder()
        net.add_switch_observer(rec, ["SW"])
        net.start_flow(net.make_flow("A", "B", 20 * KB, usec(1)))
        net.run(msec(2))
        assert len(rec.dequeues) == len(rec.enqueues)

    def test_stats_counters(self, tiny_net):
        net = tiny_net
        net.start_flow(net.make_flow("A", "B", 10 * KB, usec(1)))
        net.run(msec(1))
        stats = net.switch("SW").stats
        assert stats.data_pkts == 10
        assert stats.data_bytes == 10 * KB
        assert stats.rx_pkts >= stats.data_pkts


class TestPriorityScheduling:
    def test_control_transmitted_ahead_of_data(self, tiny_net):
        net = tiny_net
        rec = Recorder()
        net.add_switch_observer(rec, ["SW"])
        flow = net.make_flow("A", "B", 40 * KB, usec(1))
        net.start_flow(flow)
        reverse = net.make_flow("B", "A", 40 * KB, usec(1), src_port=11111)
        net.start_flow(reverse)
        net.run(msec(2))
        # ACKs for the reverse flow share A's egress with data; both finish.
        assert flow.completed and reverse.completed
        prios = {e[2].priority for e in rec.enqueues}
        assert CONTROL_PRIORITY in prios and DATA_PRIORITY in prios


def data_pkt(net, size=1 * KB, src="B", dst="A"):
    return Packet.data(net.make_flow(src, dst, size, 0).key, size, 0, net.sim.now)


class TestWireIdleWake:
    """``_try_transmit`` with nothing sendable: a wake is owed only to a
    paused backlog, one per port, at the earliest expiry + 1 ns."""

    def test_idle_wake_on_drained_port_schedules_nothing(self, tiny_net):
        net = tiny_net
        sw = net.switch("SW")
        port_no = net.topology.attachment_of("A").port
        flow = net.make_flow("B", "A", 10 * KB, usec(1))
        net.start_flow(flow)
        net.run(msec(1))
        port = sw.ports[port_no]
        assert flow.completed and port.queues and not any(port.queues.values())
        pending = net.sim.pending_entries
        sw._try_transmit(port_no)  # what the post-serialization event does
        assert net.sim.pending_entries == pending and port.wake is None
        # Paused but empty: still nothing to wake for.
        sw.receive(Packet.pfc(DATA_PRIORITY, 0xFFFF, net.sim.now), port_no)
        sw._try_transmit(port_no)
        assert net.sim.pending_entries == pending and port.wake is None

    def test_paused_backlog_gets_exactly_one_wake(self, tiny_net):
        net = tiny_net
        sim = net.sim
        sw = net.switch("SW")
        port_no = net.topology.attachment_of("A").port
        port = sw.ports[port_no]
        sw.receive(Packet.pfc(DATA_PRIORITY, 1000, 0), port_no)
        expiry = port.paused_until[DATA_PRIORITY]
        assert expiry > 0 and sim.pending_entries == 0

        sw.enqueue(data_pkt(net), port_no, None)
        wake = port.wake
        assert wake is not None and wake.time == expiry + 1
        assert sim.pending_entries == 1
        # More backlog and more wire-idle events: still the one wake.
        sw.enqueue(data_pkt(net), port_no, None)
        sw._try_transmit(port_no)
        assert port.wake is wake and sim.pending_entries == 1

        # A refresh pushes the expiry out; the earlier wake stays (it will
        # re-arm when it fires), no second event is added.
        net.run(expiry // 2)
        sw.receive(Packet.pfc(DATA_PRIORITY, 1000, sim.now), port_no)
        assert port.paused_until[DATA_PRIORITY] > expiry
        assert port.wake is wake and not wake.cancelled
        assert sim.pending_entries == 1

        # A shorter pause expires before the pending wake: it is replaced.
        sw.receive(Packet.pfc(DATA_PRIORITY, 10, sim.now), port_no)
        sooner = port.paused_until[DATA_PRIORITY]
        assert sim.now < sooner < expiry
        assert wake.cancelled and port.wake is not wake
        assert port.wake.time == sooner + 1

        net.run(msec(1))
        assert port.wake is None and port.tx_pkts == 2


class TestPortWireTimeTable:
    @pytest.mark.parametrize("rate_gbps", [10, 25, 100])
    def test_table_matches_serialization_delay(self, rate_gbps):
        bandwidth = gbps(rate_gbps)
        topo = build_tiny(bandwidth)
        net = Network(topo, config=SimConfig(data_packet_size=1500))
        sw = net.switch("SW")
        port_no = topo.attachment_of("A").port
        port = sw.ports[port_no]
        assert port.ser_ns == {}
        sizes = (1, 64, 1000, net.config.data_packet_size, 37)
        for size in sizes:
            sw.enqueue(data_pkt(net, size), port_no, None)
        net.run(msec(1))
        assert port.tx_pkts == len(sizes)
        assert port.ser_ns == {
            size: serialization_delay_ns(size, bandwidth) for size in sizes
        }
        assert port.ser_ns[1] == 1  # the 1 ns floor (0.08-0.8 ns of wire)
        # The table is what paced the wire: back-to-back frames, no gaps.
        assert port.busy_until == sum(port.ser_ns.values())


class TestStaticRouteMidRun:
    def test_override_moves_the_next_packet(self, fat_tree):
        """The switch calls a ``select_port`` bound at construction; an
        override installed mid-run must still reach it."""
        net = Network(fat_tree)
        egress = []  # egress port of each data packet, in enqueue order

        class DataEgress(SwitchObserver):
            def on_egress_enqueue(self, sw, t, pkt, eport, iport, qd, qb, paused):
                if pkt.ptype is PacketType.DATA:
                    egress.append(eport)

        net.add_switch_observer(DataEgress(), ["E0_0"])
        flow = net.make_flow("H0_0_0", "H3_1_1", 60 * KB, usec(1))
        net.start_flow(flow)
        net.run(usec(4))
        before = len(egress)
        assert 0 < before < 60 and len(set(egress)) == 1
        natural = egress[0]
        (other,) = [
            port
            for port, peer in fat_tree.neighbors("E0_0")
            if fat_tree.node(peer.node).is_switch and port != natural
        ]
        net.routing.set_static_route("E0_0", flow.key.dst_ip, other)
        net.run(msec(1))
        assert flow.completed
        assert len(egress) == 60 and set(egress[before:]) == {other}
