"""Motivation bench (§2.3): the PFC watchdog misses transient congestion.

The paper motivates fine-grained PFC telemetry by noting the industrial
PFC watchdog polls port status at hundreds of milliseconds, "which may
miss massive transient PFC congestion".  This bench fires a train of
transient incast episodes and compares detection coverage: watchdog polls
vs Hawkeye's RTT-triggered agent, against tracer ground truth.
"""

import pytest

from conftest import print_table
from repro.baselines import PfcWatchdog, WatchdogConfig
from repro.collection import DetectionAgent
from repro.obs import SimTraceObserver, Tracer
from repro.sim import Network
from repro.topology import build_line
from repro.units import KB, msec, usec


EPISODES = 6
EPISODE_SPACING = msec(1)


def run_transients():
    net = Network(build_line(num_switches=3, hosts_per_switch=4))
    tracer = SimTraceObserver(Tracer())
    net.add_switch_observer(tracer)
    watchdog = PfcWatchdog(net, WatchdogConfig(poll_interval_ns=msec(200) // 10))
    # NOTE: 20 ms / 10 = 20 ms... the interval is scaled to our ms-scale
    # traces: a real 200 ms watchdog vs multi-second traces behaves like a
    # 20 ms watchdog vs our 7 ms trace — still far coarser than an episode.
    watchdog.start()
    agent = DetectionAgent(net)

    # A victim flow alive across all episodes (application-limited).
    victim = net.make_flow("H1_0", "H3_3", 6_000 * KB, usec(1), src_port=999)
    victim.max_rate = 0.25 * net.hosts["H1_0"].bandwidth
    net.start_flow(victim)

    # Transient incast episodes (~100 us each) once per millisecond.
    port = 11000
    for episode in range(EPISODES):
        start = usec(100) + episode * EPISODE_SPACING
        for src in ("H2_0", "H2_1", "H3_1", "H3_2"):
            net.start_flow(net.make_flow(src, "H3_0", 150 * KB, start, src_port=port))
            port += 1
    net.run(EPISODES * EPISODE_SPACING + msec(1))
    tracer.finish(net.sim.now)

    # Ground truth: pause episodes on SW2's egress toward SW3 (the port the
    # congested SW3 pauses hop-by-hop).
    sw2_egress = next(
        remote for _, remote in net.topology.neighbors("SW3") if remote.node == "SW2"
    )
    true_episodes = tracer.pause_spans(sw2_egress)
    watchdog_hits = sum(
        1
        for span in true_episodes
        if watchdog.detected_episode([span], sw2_egress)
    )
    agent_triggers = len({t.victim for t in agent.triggers})
    return len(true_episodes), watchdog_hits, agent_triggers


@pytest.mark.benchmark(group="motivation")
def test_watchdog_misses_transient_pfc(benchmark):
    episodes, watchdog_hits, agent_victims = benchmark.pedantic(
        run_transients, rounds=1, iterations=1
    )
    print_table(
        "Motivation (§2.3): transient PFC episodes vs detection",
        ("true pause episodes", "watchdog caught", "hawkeye victims triggered"),
        [(episodes, watchdog_hits, agent_victims)],
    )
    assert episodes >= EPISODES // 2, "the workload must create pause episodes"
    # The coarse poller misses most transient episodes...
    assert watchdog_hits < episodes / 2
    # ... while the host agent (per-flow RTT/stall) raises complaints.
    assert agent_victims >= 1
