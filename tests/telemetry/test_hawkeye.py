"""Hawkeye switch telemetry tests: flow tables, port counters, meters,
PFC status registers, epoch rollover and eviction."""

import tracemalloc

import pytest

from repro.experiments import RunConfig, run_scenario
from repro.sim import DATA_PRIORITY, FlowKey, Network, Packet
from repro.telemetry import (
    EpochScheme,
    HawkeyeDeployment,
    HawkeyeSwitchTelemetry,
    TelemetryConfig,
)
from repro.units import KB, msec, usec
from repro.workloads import SCENARIO_BUILDERS


def run_tiny_flow(tiny_net, deployment=None, size=20 * KB):
    dep = deployment or HawkeyeDeployment(tiny_net)
    flow = tiny_net.make_flow("A", "B", size, usec(1))
    tiny_net.start_flow(flow)
    tiny_net.run(msec(1))
    return dep, flow


class TestFlowTable:
    def test_records_flow_packets(self, tiny_net):
        dep, flow = run_tiny_flow(tiny_net)
        rep = dep.for_switch("SW").snapshot(tiny_net.sim.now)
        entries = rep.agg_flows()
        egress = tiny_net.topology.attachment_of("B").port
        entry = entries[(flow.key, egress)]
        assert entry.pkt_count == 20
        assert entry.byte_count == 20 * KB

    def test_control_traffic_not_recorded(self, tiny_net):
        dep, flow = run_tiny_flow(tiny_net)
        rep = dep.for_switch("SW").snapshot(tiny_net.sim.now)
        # only the data flow (one direction) appears; ACKs do not
        assert {k for (k, _p) in rep.agg_flows()} == {flow.key}

    def test_collision_evicts_to_controller(self, tiny_net):
        config = TelemetryConfig(flow_slots=1)  # every flow collides
        dep = HawkeyeDeployment(tiny_net, config)
        f1 = tiny_net.make_flow("A", "B", 10 * KB, usec(1), src_port=1)
        f2 = tiny_net.make_flow("A", "B", 10 * KB, usec(1), src_port=2)
        tiny_net.start_flow(f1)
        tiny_net.start_flow(f2)
        tiny_net.run(msec(1))
        telem = dep.for_switch("SW")
        assert telem.evictions > 0
        # Both flows' full counts survive in the snapshot (evicted entries
        # are merged back, §3.3: "stored at the controller").
        rep = telem.snapshot(tiny_net.sim.now)
        entries = rep.agg_flows()
        total = sum(e.pkt_count for e in entries.values())
        assert total == 20

    def test_paused_packets_counted_per_flow(self, tiny_net):
        dep = HawkeyeDeployment(tiny_net)
        sw = tiny_net.switch("SW")
        port = tiny_net.topology.attachment_of("B").port
        sw.receive(Packet.pfc(DATA_PRIORITY, 0xFFFF, 0), port)
        flow = tiny_net.make_flow("A", "B", 20 * KB, usec(1))
        tiny_net.start_flow(flow)
        tiny_net.run(usec(100))
        rep = dep.for_switch("SW").snapshot(tiny_net.sim.now)
        assert rep.flow_paused_count(flow.key) > 0


class TestPortTelemetry:
    def test_port_counters_preaggregated(self, tiny_net):
        dep, flow = run_tiny_flow(tiny_net)
        rep = dep.for_switch("SW").snapshot(tiny_net.sim.now)
        egress = tiny_net.topology.attachment_of("B").port
        ports = rep.agg_ports()
        assert ports[egress].pkt_count == 20

    def test_paused_packets_counted_per_port(self, tiny_net):
        dep = HawkeyeDeployment(tiny_net)
        sw = tiny_net.switch("SW")
        port = tiny_net.topology.attachment_of("B").port
        sw.receive(Packet.pfc(DATA_PRIORITY, 0xFFFF, 0), port)
        flow = tiny_net.make_flow("A", "B", 20 * KB, usec(1))
        tiny_net.start_flow(flow)
        tiny_net.run(usec(100))
        rep = dep.for_switch("SW").snapshot(tiny_net.sim.now)
        assert rep.agg_ports()[port].paused_count > 0


class TestCausalityStructure:
    def test_meter_records_port_pair_volume(self, tiny_net):
        dep, flow = run_tiny_flow(tiny_net)
        rep = dep.for_switch("SW").snapshot(tiny_net.sim.now)
        ingress = tiny_net.topology.attachment_of("A").port
        egress = tiny_net.topology.attachment_of("B").port
        assert rep.agg_meters()[(ingress, egress)] == 20 * KB

    def test_meter_zero_for_unused_pair(self, tiny_net):
        dep, flow = run_tiny_flow(tiny_net)
        rep = dep.for_switch("SW").snapshot(tiny_net.sim.now)
        egress = tiny_net.topology.attachment_of("B").port
        assert (egress, egress) not in rep.agg_meters()

    def test_port_status_register_tracks_pause(self, tiny_net):
        dep = HawkeyeDeployment(tiny_net)
        sw = tiny_net.switch("SW")
        telem = dep.for_switch("SW")
        port = tiny_net.topology.attachment_of("B").port
        sw.receive(Packet.pfc(DATA_PRIORITY, 0xFFFF, 0), port)
        assert telem.snapshot(tiny_net.sim.now).port_status[port] > 0

    def test_port_status_cleared_by_resume(self, tiny_net):
        dep = HawkeyeDeployment(tiny_net)
        sw = tiny_net.switch("SW")
        telem = dep.for_switch("SW")
        port = tiny_net.topology.attachment_of("B").port
        sw.receive(Packet.pfc(DATA_PRIORITY, 0xFFFF, 0), port)
        sw.receive(Packet.pfc(DATA_PRIORITY, 0, 0), port)
        assert telem.snapshot(tiny_net.sim.now + 1).port_status[port] == 0


class TestEpochRing:
    def test_epochs_separate_traffic(self, tiny_net):
        scheme = EpochScheme(shift=17, index_bits=2)  # ~131 us epochs
        dep = HawkeyeDeployment(tiny_net, TelemetryConfig(scheme=scheme))
        f1 = tiny_net.make_flow("A", "B", 10 * KB, usec(1), src_port=1)
        f2 = tiny_net.make_flow("A", "B", 10 * KB, usec(200), src_port=2)
        tiny_net.start_flow(f1)
        tiny_net.start_flow(f2)
        tiny_net.run(usec(300))
        rep = dep.for_switch("SW").snapshot(tiny_net.sim.now)
        assert len(rep.epochs) == 2
        per_epoch_flows = [{k for (k, _p) in e.flows} for e in rep.epochs]
        assert per_epoch_flows[0] == {f1.key}
        assert per_epoch_flows[1] == {f2.key}

    def test_ring_wraparound_resets_old_epoch(self, tiny_net):
        scheme = EpochScheme(shift=17, index_bits=1)  # ring of 2
        dep = HawkeyeDeployment(tiny_net, TelemetryConfig(scheme=scheme))
        f1 = tiny_net.make_flow("A", "B", 10 * KB, usec(1), src_port=1)
        tiny_net.start_flow(f1)
        tiny_net.run(usec(50))
        # Two epochs later new traffic lands in f1's ring slot: the write
        # with a newer epoch ID resets it (lazy hardware reset).
        later = usec(1) + 2 * scheme.epoch_size_ns
        f2 = tiny_net.make_flow("A", "B", 10 * KB, later, src_port=2)
        tiny_net.start_flow(f2)
        tiny_net.run(later + usec(100))
        rep = dep.for_switch("SW").snapshot(tiny_net.sim.now)
        keys = {k for e in rep.epochs for (k, _p) in e.flows}
        assert f1.key not in keys, "overwritten epoch must not resurface"
        assert f2.key in keys

    def test_frozen_network_epochs_stay_readable(self, tiny_net):
        """Registers are reset on *write*, not by time passing: the last
        traffic before a freeze (e.g. a forming deadlock) remains readable
        long after its nominal window."""
        scheme = EpochScheme(shift=17, index_bits=1)
        dep = HawkeyeDeployment(tiny_net, TelemetryConfig(scheme=scheme))
        f1 = tiny_net.make_flow("A", "B", 10 * KB, usec(1), src_port=1)
        tiny_net.start_flow(f1)
        tiny_net.run(usec(50))
        # Silence for many epochs: nothing overwrites the slot.
        tiny_net.run(usec(50) + 10 * scheme.epoch_size_ns)
        rep = dep.for_switch("SW").snapshot(tiny_net.sim.now)
        keys = {k for e in rep.epochs for (k, _p) in e.flows}
        assert f1.key in keys


class TestConfig:
    @pytest.mark.parametrize("slots", [0, -3])
    def test_non_positive_flow_slots_rejected(self, slots):
        with pytest.raises(ValueError, match="flow_slots"):
            TelemetryConfig(flow_slots=slots)

    def test_run_config_rejected_before_the_run(self):
        scenario = SCENARIO_BUILDERS["pfc-storm"](seed=1)
        with pytest.raises(ValueError, match="flow_slots"):
            run_scenario(scenario, RunConfig(flow_slots=0))
        assert scenario.network.sim.now == 0


def _traced_run(config):
    scenario = SCENARIO_BUILDERS["pfc-storm"](seed=1)
    tracemalloc.start()
    try:
        result = run_scenario(scenario, config)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return result, peak


class TestCapacity:
    def test_capacity_costs_nothing(self):
        """The flow table stores occupied slots only: a 2^20-slot table
        gives the default run's verdict at about the default's memory."""
        base, base_peak = _traced_run(RunConfig())
        big, big_peak = _traced_run(RunConfig(flow_slots=1 << 20))
        for want, got in zip(base.diagnosis().findings, big.diagnosis().findings):
            assert got.anomaly == want.anomaly
            assert got.root_cause == want.root_cause
            assert got.pfc_path == want.pfc_path
            assert got.culprit_keys() == want.culprit_keys()
            assert got.injecting_source == want.injecting_source
        assert len(big.diagnosis().findings) == len(base.diagnosis().findings)
        assert big_peak <= 1.5 * base_peak

        stored = 0
        for switch in big.scenario.network.switches.values():
            for telem in switch.observers:
                if not isinstance(telem, HawkeyeSwitchTelemetry):
                    continue
                for bank in telem._banks:
                    for slot, entry in bank.table.items():
                        # Every stored entry is a key hashed to that slot
                        # and counted at least one packet.
                        assert telem._key_slot[entry[0]] == slot
                        assert entry[2] >= 1
                        stored += 1
        assert 0 < stored < 1000


class TestDeployment:
    def test_partial_deployment(self, line3):
        net = Network(line3)
        dep = HawkeyeDeployment(net, switches=["SW1", "SW3"])
        assert "SW1" in dep and "SW3" in dep and "SW2" not in dep
        with pytest.raises(KeyError):
            dep.for_switch("SW2")

    def test_full_deployment_covers_all(self, line3):
        net = Network(line3)
        dep = HawkeyeDeployment(net)
        assert all(name in dep for name in net.switches)
