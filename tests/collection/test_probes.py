"""Probe mesh tests: periodic probing and anomaly surfacing (§5)."""

import pytest

from repro.collection import DetectionAgent, ProbeMesh, ProbeMeshConfig
from repro.sim import Network
from repro.topology import build_line
from repro.units import msec, usec


class TestProbeMesh:
    def test_probes_launched_on_schedule(self, tiny_net, monkeypatch):
        monkeypatch.setattr("repro.collection.probes.PROBES_PER_ROUND", 2)
        mesh = ProbeMesh(tiny_net, ProbeMeshConfig(interval_ns=usec(100)))
        mesh.start()
        tiny_net.run(usec(1000))
        # ~10 rounds x 2 probes (first round at t=0).
        assert len(mesh.probes) >= 18

    def test_probes_complete_on_healthy_network(self, tiny_net):
        mesh = ProbeMesh(tiny_net, ProbeMeshConfig(interval_ns=usec(200)))
        mesh.start()
        tiny_net.run(msec(1))
        tiny_net.run(msec(2))  # drain
        assert mesh.coverage() > 0.9

    def test_stop_halts_probing(self, tiny_net):
        mesh = ProbeMesh(tiny_net, ProbeMeshConfig(interval_ns=usec(100)))
        mesh.start()
        tiny_net.run(usec(300))
        count = len(mesh.probes)
        mesh.stop()
        tiny_net.run(msec(2))
        assert len(mesh.probes) == count

    def test_start_idempotent(self, tiny_net, monkeypatch):
        monkeypatch.setattr("repro.collection.probes.PROBES_PER_ROUND", 1)
        mesh = ProbeMesh(tiny_net, ProbeMeshConfig(interval_ns=usec(100)))
        mesh.start()
        mesh.start()
        tiny_net.run(usec(250))
        assert len(mesh.probes) <= 4  # not doubled

    def test_requires_two_hosts(self):
        from repro.topology import Topology
        from repro.units import gbps

        topo = Topology()
        topo.add_switch("S")
        topo.add_host("A")
        topo.add_link("A", "S", gbps(100), usec(1))
        net = Network(topo)
        with pytest.raises(ValueError):
            ProbeMesh(net)

    def test_probes_surface_frozen_paths(self):
        """A PFC storm stalls probes toward the frozen region, and the
        standard agent turns the stalled probes into diagnosis triggers."""
        topo = build_line(num_switches=3, hosts_per_switch=2)
        net = Network(topo)
        agent = DetectionAgent(net)
        mesh = ProbeMesh(net, ProbeMeshConfig(interval_ns=usec(200)))
        mesh.start()
        net.hosts["H3_0"].start_pfc_injection(msec(4))
        net.run(msec(3))
        stalled = mesh.stalled_probes()
        assert stalled, "probes into the frozen ToR must stall"
        stalled_keys = {p.key for p in stalled}
        assert any(t.victim in stalled_keys for t in agent.triggers)
