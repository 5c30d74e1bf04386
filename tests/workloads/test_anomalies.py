"""Scenario builder tests: the traffic kit, structure, ground truth,
injected dynamics."""

import random

import pytest

from repro.core import AnomalyType
from repro.sim import Network
from repro.units import KB, msec, usec
from repro.workloads import (
    SCENARIO_BUILDERS,
    add_background_traffic,
    cbd_ring_routing,
    circulation_flows,
    in_loop_deadlock_scenario,
    incast_backpressure_scenario,
    inject_pfc,
    normal_contention_scenario,
    out_of_loop_deadlock_scenario,
    pfc_storm_scenario,
    start_flows,
)

SOURCES = ["H1_0_0", "H1_0_1", "H2_0_0", "H2_1_0"]


class TestTrafficKit:
    def test_ports_count_up_from_port(self, fat_tree):
        net = Network(fat_tree)
        flows = start_flows(net, SOURCES, "H0_0_0", 100 * KB, usec(5), port=11500)
        assert [f.key.src_port for f in flows] == [11500, 11501, 11502, 11503]
        assert [f.src_host for f in flows] == SOURCES
        assert {f.dst_host for f in flows} == {"H0_0_0"}
        assert net.flows == flows  # started, in source order

    def test_jitter_is_one_draw_per_flow(self, fat_tree):
        rng, replay = random.Random(9), random.Random(9)
        flows = start_flows(Network(fat_tree), SOURCES, "H0_0_0", 100 * KB,
                            usec(40), rng=rng, jitter_ns=usec(5))
        assert [f.start_time for f in flows] == [
            usec(40) + replay.randrange(usec(5)) for _ in SOURCES
        ]
        assert rng.random() == replay.random()  # and not one draw more

    def test_stagger_without_rng(self, fat_tree):
        flows = start_flows(Network(fat_tree), SOURCES, "H0_0_0", 100 * KB,
                            usec(30), stagger_ns=usec(1))
        assert [f.start_time for f in flows] == [usec(30 + i) for i in range(4)]

    def test_size_is_one_value_or_one_per_source(self, fat_tree):
        net = Network(fat_tree)
        same = start_flows(net, SOURCES[:2], "H0_0_0", 300 * KB, 0)
        each = start_flows(net, SOURCES[2:], "H0_0_0", [100 * KB, 250 * KB], 0)
        assert [f.size for f in same + each] == [300 * KB, 300 * KB, 100 * KB, 250 * KB]

    def test_rate_caps_max_rate(self, fat_tree):
        net = Network(fat_tree)
        capped = start_flows(net, SOURCES[:2], "H0_0_0", KB, 0, rate=0.25)
        free = start_flows(net, SOURCES[2:], "H0_0_0", KB, 0)
        assert [f.max_rate for f in capped] == [
            0.25 * net.hosts[f.src_host].bandwidth for f in capped
        ]
        assert [f.max_rate for f in free] == [None, None]

    def test_no_sources_start_and_draw_nothing(self, fat_tree):
        net, rng = Network(fat_tree), random.Random(3)
        assert start_flows(net, [], "H0_0_0", KB, 0, rng=rng, jitter_ns=9) == []
        assert net.flows == []
        assert rng.random() == random.Random(3).random()

    def test_inject_pfc_starts_the_storm_on_time(self, fat_tree):
        net = Network(fat_tree)
        inject_pfc(net, "H0_0_0", usec(30), usec(100))
        net.run(usec(29))
        assert net.hosts["H0_0_0"].injected_pause_frames == 0
        net.run(usec(60))
        assert net.hosts["H0_0_0"].injected_pause_frames > 0

    def test_cbd_ring_routes_clockwise_with_circulation(self, ring4):
        routing = cbd_ring_routing(ring4, 4, 2)
        # Shortest path SW4 -> SW3 is one hop; the CBD goes the long way.
        assert routing.switch_path("H4_0", ring4.host_ip("H3_0"), "k") == [
            "SW4", "SW1", "SW2", "SW3",
        ]
        net = Network(ring4, routing=routing)
        flows = circulation_flows(net, 4, rate=0.4)
        assert [(f.src_host, f.dst_host) for f in flows] == [
            ("H1_0", "H3_0"), ("H2_0", "H4_0"), ("H3_0", "H1_0"), ("H4_0", "H2_0"),
        ]
        assert [f.key.src_port for f in flows] == [13000, 13001, 13002, 13003]
        assert {f.max_rate for f in flows} == {0.4 * net.hosts["H1_0"].bandwidth}


class TestScenarioStructure:
    @pytest.mark.parametrize("name", sorted(SCENARIO_BUILDERS))
    def test_builder_produces_consistent_scenario(self, name):
        sc = SCENARIO_BUILDERS[name](seed=3)
        assert sc.victims, "every scenario needs victims"
        assert sc.duration_ns > 0
        assert sc.network.flows, "builders must schedule traffic"
        for key in sc.truth.culprit_flows:
            assert key in {f.key for f in sc.network.flows}
        if sc.truth.injecting_host is not None:
            assert sc.truth.injecting_host in sc.network.hosts
        if sc.truth.initial_port is not None:
            assert sc.network.topology.has_node(sc.truth.initial_port.node)

    def test_incast_truth_type(self):
        sc = incast_backpressure_scenario(seed=1)
        assert sc.truth.anomaly is AnomalyType.MICRO_BURST_INCAST
        assert len(sc.truth.culprit_flows) == 6

    def test_storm_truth_type(self):
        sc = pfc_storm_scenario(seed=1)
        assert sc.truth.anomaly is AnomalyType.PFC_STORM
        assert sc.truth.injecting_host == "H0_0_0"

    def test_deadlock_loop_ports(self):
        sc = in_loop_deadlock_scenario(seed=1)
        assert len(sc.truth.loop_ports) == 4
        assert {p.node for p in sc.truth.loop_ports} == {"SW1", "SW2", "SW3", "SW4"}

    def test_out_of_loop_variants_differ(self):
        inj = out_of_loop_deadlock_scenario(seed=1, injection=True)
        cont = out_of_loop_deadlock_scenario(seed=1, injection=False)
        assert inj.truth.anomaly is AnomalyType.OUT_OF_LOOP_DEADLOCK_INJECTION
        assert cont.truth.anomaly is AnomalyType.OUT_OF_LOOP_DEADLOCK_CONTENTION
        assert cont.truth.culprit_flows and not inj.truth.culprit_flows

    def test_seeds_change_jitter_not_structure(self):
        a = incast_backpressure_scenario(seed=1)
        b = incast_backpressure_scenario(seed=2)
        assert [f.key for f in a.victims] == [f.key for f in b.victims]
        assert a.truth.initial_port == b.truth.initial_port


class TestInjectedDynamics:
    def test_incast_generates_pfc(self):
        sc = incast_backpressure_scenario(seed=1)
        sc.network.run(sc.duration_ns)
        assert sum(s.stats.pause_sent for s in sc.network.switches.values()) > 0

    def test_storm_freezes_victim(self):
        sc = pfc_storm_scenario(seed=1)
        sc.network.run(msec(2))
        victim = sc.victims[0]
        assert not victim.completed

    def test_in_loop_deadlock_freezes_circulation(self):
        sc = in_loop_deadlock_scenario(seed=1)
        sc.network.run(sc.duration_ns)
        blocked = [f for f in sc.victims if not f.completed]
        assert len(blocked) == len(sc.victims), "deadlocked flows never finish"

    def test_deadlock_persists_after_burst_ends(self):
        sc = in_loop_deadlock_scenario(seed=1)
        net = sc.network
        net.run(msec(2))
        progress_at_2ms = [f.bytes_acked for f in sc.victims]
        net.run(msec(4))
        assert [f.bytes_acked for f in sc.victims] == progress_at_2ms

    def test_normal_contention_produces_no_pfc(self):
        sc = normal_contention_scenario(seed=1)
        sc.network.run(sc.duration_ns)
        assert sum(s.stats.pause_sent for s in sc.network.switches.values()) == 0

    def test_normal_contention_inflates_victim_rtt(self):
        sc = normal_contention_scenario(seed=1)
        net = sc.network
        net.run(sc.duration_ns)
        victim = sc.victims[0]
        base = net.estimate_base_rtt(victim.src_host, victim.key.dst_ip, victim.key)
        assert max(r for _, r in victim.rtt_samples) > 3 * base


class TestBackgroundTraffic:
    def test_background_disabled_at_zero_load(self, fat_tree):
        net = Network(fat_tree)
        assert add_background_traffic(net, seed=1, load=0.0, duration_ns=msec(5)) == []

    def test_background_respects_exclusions(self, fat_tree):
        net = Network(fat_tree)
        flows = add_background_traffic(
            net, seed=1, load=0.2, duration_ns=msec(5), exclude_hosts={"H0_0_0"}
        )
        assert flows
        assert all(f.src_host != "H0_0_0" and f.dst_host != "H0_0_0" for f in flows)

    def test_background_flows_started(self, fat_tree):
        net = Network(fat_tree)
        flows = add_background_traffic(net, seed=1, load=0.1, duration_ns=msec(5))
        assert set(f.key for f in flows) <= set(f.key for f in net.flows)


class TestLordmaAttack:
    """The LoRDMA-style low-rate attack extension (§2.1)."""

    def test_attack_is_low_average_rate(self):
        from repro.workloads import lordma_attack_scenario

        sc = lordma_attack_scenario(seed=1)
        flows = [f for f in sc.network.flows if f.key in set(sc.truth.culprit_flows)]
        total = sum(f.size for f in flows)
        # Average attack rate over the scenario stays well under one link.
        bandwidth = sc.network.hosts[flows[0].src_host].bandwidth
        avg_rate = total / (sc.duration_ns / 1e9)
        assert avg_rate < 0.6 * bandwidth

    def test_attack_detected_and_attributed(self):
        from repro.core import AnomalyType
        from repro.experiments import RunConfig, diagnosis_correct, run_scenario
        from repro.workloads import lordma_attack_scenario

        sc = lordma_attack_scenario(seed=1)
        # Covert attacks need the paper's sensitive threshold (200% RTT).
        res = run_scenario(sc, RunConfig(threshold_multiplier=2.0))
        d = res.diagnosis()
        assert d is not None
        assert d.primary().anomaly is AnomalyType.MICRO_BURST_INCAST
        assert diagnosis_correct(d, sc.truth)
        # Every blamed flow is an actual attack flow, never the victim.
        assert set(d.primary().culprit_keys()) <= set(sc.truth.culprit_flows)

    def test_victim_recovers_between_pulses(self):
        from repro.workloads import lordma_attack_scenario

        sc = lordma_attack_scenario(seed=1)
        sc.network.run(sc.duration_ns)
        victim = sc.victims[0]
        assert victim.completed, "the covert attack degrades but never kills"
