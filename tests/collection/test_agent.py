"""Detection agent tests: RTT triggering, stall detection, cooldown."""

import pytest

from repro.collection import DetectionAgent
from repro.sim import DATA_PRIORITY, Network, Packet
from repro.topology import build_dumbbell
from repro.units import KB, msec, usec


class TestRttTrigger:
    def test_no_trigger_when_unloaded(self, tiny_net):
        agent = DetectionAgent(tiny_net, threshold_multiplier=3.0)
        tiny_net.start_flow(tiny_net.make_flow("A", "B", 50 * KB, usec(1)))
        tiny_net.run(msec(1))
        assert agent.triggers == []

    def test_trigger_on_congested_flow(self):
        net = Network(build_dumbbell(hosts_per_side=4))
        agent = DetectionAgent(net, threshold_multiplier=3.0)
        victim = net.make_flow("HL0", "HR0", 500 * KB, usec(1), src_port=1)
        net.start_flow(victim)
        for j in range(1, 4):
            net.start_flow(net.make_flow(f"HL{j}", "HR0", 500 * KB, usec(1), src_port=10 + j))
        net.run(msec(3))
        assert any(t.victim == victim.key for t in agent.triggers)

    def test_trigger_event_fields(self):
        net = Network(build_dumbbell(hosts_per_side=4))
        agent = DetectionAgent(net, threshold_multiplier=2.0)
        for j in range(4):
            net.start_flow(net.make_flow(f"HL{j}", "HR0", 500 * KB, usec(1), src_port=10 + j))
        net.run(msec(3))
        assert agent.triggers
        t = agent.triggers[0]
        assert t.rtt_ns > t.base_rtt_ns * 2
        assert t.time_ns > 0

    def test_cooldown_suppresses_repeats(self, monkeypatch):
        monkeypatch.setattr("repro.collection.agent.COOLDOWN_NS", msec(100))
        net = Network(build_dumbbell(hosts_per_side=4))
        agent = DetectionAgent(net, threshold_multiplier=2.0)
        victim = net.make_flow("HL0", "HR0", 1000 * KB, usec(1), src_port=1)
        net.start_flow(victim)
        for j in range(1, 4):
            net.start_flow(net.make_flow(f"HL{j}", "HR0", 1000 * KB, usec(1), src_port=10 + j))
        net.run(msec(5))
        mine = [t for t in agent.triggers if t.victim == victim.key]
        assert len(mine) == 1

    def test_threshold_sensitivity(self):
        """A lax threshold must trigger no more often than a strict one."""

        def trigger_count(multiplier):
            net = Network(build_dumbbell(hosts_per_side=4))
            agent = DetectionAgent(net, threshold_multiplier=multiplier)
            for j in range(4):
                net.start_flow(
                    net.make_flow(f"HL{j}", "HR0", 400 * KB, usec(1), src_port=10 + j)
                )
            net.run(msec(3))
            return len(agent.triggers)

        assert trigger_count(8.0) <= trigger_count(2.0)

    def test_listener_invoked(self, tiny_net):
        net = tiny_net
        agent = DetectionAgent(net, threshold_multiplier=0.0001)
        seen = []
        agent.add_trigger_listener(seen.append)
        net.start_flow(net.make_flow("A", "B", 10 * KB, usec(1)))
        net.run(msec(1))
        assert seen  # absurdly low threshold triggers on the first sample

    def test_polling_packet_injected_on_trigger(self, tiny_net):
        net = tiny_net
        DetectionAgent(net, threshold_multiplier=0.0001)
        net.start_flow(net.make_flow("A", "B", 10 * KB, usec(1)))
        net.run(msec(1))
        assert net.switch("SW").stats.polling_seen > 0


class TestStallDetection:
    def test_fully_blocked_flow_triggers(self, tiny_net, monkeypatch):
        monkeypatch.setattr("repro.collection.agent.STALL_TIMEOUT_NS", usec(300))
        net = tiny_net
        agent = DetectionAgent(net, threshold_multiplier=3.0)
        # Freeze the path before the flow starts: zero ACKs ever arrive.
        net.hosts["B"].start_pfc_injection(msec(10))
        victim = net.make_flow("A", "B", 100 * KB, usec(50))
        net.start_flow(victim)
        net.run(msec(3))
        assert any(t.victim == victim.key for t in agent.triggers)

    def test_deadlocked_flow_triggers_once_per_cooldown(self, tiny_net, monkeypatch):
        """A permanently stalled flow re-triggers exactly on the cooldown
        cadence: gaps never undercut the window, and the total count is
        bounded by the run length divided by the cooldown."""
        net = tiny_net
        cooldown = usec(500)
        duration = msec(3)
        monkeypatch.setattr("repro.collection.agent.STALL_TIMEOUT_NS", usec(300))
        monkeypatch.setattr("repro.collection.agent.COOLDOWN_NS", cooldown)
        agent = DetectionAgent(net, threshold_multiplier=50.0)  # RTT path silent: stalls only
        net.hosts["B"].start_pfc_injection(msec(10))
        victim = net.make_flow("A", "B", 100 * KB, usec(50))
        net.start_flow(victim)
        net.run(duration)
        times = [t.time_ns for t in agent.triggers if t.victim == victim.key]
        assert len(times) >= 2  # the stall persists across several windows
        gaps = [b - a for a, b in zip(times, times[1:])]
        assert all(gap >= cooldown for gap in gaps)
        assert len(times) <= duration // cooldown + 1

    def test_healthy_flow_does_not_stall_trigger(self, tiny_net, monkeypatch):
        monkeypatch.setattr("repro.collection.agent.STALL_TIMEOUT_NS", usec(300))
        agent = DetectionAgent(tiny_net, threshold_multiplier=50.0)
        tiny_net.start_flow(tiny_net.make_flow("A", "B", 100 * KB, usec(1)))
        tiny_net.run(msec(3))
        assert agent.triggers == []

    def test_completed_flow_never_stall_triggers(self, tiny_net, monkeypatch):
        monkeypatch.setattr("repro.collection.agent.STALL_TIMEOUT_NS", usec(100))
        agent = DetectionAgent(tiny_net, threshold_multiplier=50.0)
        flow = tiny_net.make_flow("A", "B", 10 * KB, usec(1))
        tiny_net.start_flow(flow)
        tiny_net.run(msec(5))
        assert flow.completed
        assert agent.triggers == []


class TestBaseRtt:
    def test_base_rtt_cached(self, tiny_net):
        agent = DetectionAgent(tiny_net)
        flow = tiny_net.make_flow("A", "B", 10 * KB, 0)
        assert agent.base_rtt(flow) == agent.base_rtt(flow)
        assert agent.base_rtt(flow) > 0
