"""Scalability benches (§4.5's scalability claims + partial deployment §5).

1. Collection scale vs fabric size: the switches Hawkeye reads for one
   diagnosis depend on the anomaly's causal footprint, not on the fabric —
   a K=6 fat-tree (45 switches) costs the same per-diagnosis telemetry as
   the paper's K=4 (20 switches), while full polling grows linearly.
2. Partial deployment: dropping Hawkeye from the aggregation/core tiers
   interrupts PFC tracing exactly as §5 warns.
"""

import pytest

from conftest import print_table
from repro.baselines import SystemKind
from repro.collection import DetectionAgent, PollingEngine, TelemetryCollector
from repro.core import AnomalyType
from repro.experiments import RunConfig, run_scenario
from repro.sim import Network, SimConfig
from repro.sim.config import PfcConfig
from repro.telemetry import HawkeyeDeployment
from repro.topology import build_fat_tree
from repro.units import KB, msec, usec
from repro.workloads import start_flows
from repro.workloads.scenario import GroundTruth, Scenario

# The K=6 incast's verdict (K=4's is in tests/sim/test_kernel_contract.py).
K6_VERDICT = (
    "Diagnosis for victim 10.0.1.2:12000->10.0.0.3:4791/17:\n"
    "  [1] pfc-backpressure-flow-contention (root cause: flow-contention); "
    "initial congestion at E0_0.P4; PFC path: E0_1.P1 -> A0_0.P1 -> E0_0.P4; "
    "culprits: 10.2.0.2:11009->10.0.0.2:4791/17 (w=158.83), "
    "10.2.0.3:11010->10.0.0.2:4791/17 (w=60.23), "
    "10.1.1.2:11005->10.0.0.2:4791/17 (w=41.11), "
    "10.2.0.2:11008->10.0.0.2:4791/17 (w=36.71)"
)


def incast_on_fat_tree(k, seed=1):
    """The Fig 1(a) incast on a K-ary fat-tree.

    K=4 delegates to the standard scenario builder; larger fabrics reuse
    its structure with more burst sources per source edge (two flows per
    host) so both aggregation switches of the destination pod are loaded.
    """
    if k == 4:
        from repro.workloads import incast_backpressure_scenario

        return incast_backpressure_scenario(seed=seed)
    topo = build_fat_tree(k=k)
    config = SimConfig(pfc=PfcConfig(xoff_bytes=80 * KB, xon_bytes=40 * KB))
    config.seed = seed
    net = Network(topo, config=config)
    sources = ["H1_0_0", "H1_0_1", "H1_1_0", "H1_1_1", "H2_0_0", "H2_0_1"]
    culprits = start_flows(
        net, [src for src in sources for _ in range(2)], "H0_0_0", 700 * KB, usec(40)
    )
    victims = start_flows(net, ["H0_1_0"], "H0_0_1", 2_000 * KB, usec(10), port=12000)
    truth = GroundTruth(
        anomaly=AnomalyType.MICRO_BURST_INCAST,
        culprit_flows=[f.key for f in culprits],
        initial_port=topo.attachment_of("H0_0_0"),
    )
    return Scenario(
        name=f"incast-k{k}", network=net, truth=truth,
        victims=victims, duration_ns=msec(3),
    )


def fabric_scaling():
    rows, verdicts = [], {}
    for k in (4, 6):
        hawkeye = run_scenario(incast_on_fat_tree(k), RunConfig())
        full = run_scenario(
            incast_on_fat_tree(k), RunConfig(system=SystemKind.FULL_POLLING)
        )
        rows.append(
            (
                k,
                len(hawkeye.scenario.network.switches),
                len(hawkeye.used_switches()),
                len(full.used_switches()),
                hawkeye.causal_coverage,
            )
        )
        verdicts[k] = hawkeye.diagnosis().describe()
    return rows, verdicts


@pytest.mark.benchmark(group="scaling")
def test_collection_scale_independent_of_fabric_size(benchmark):
    rows, verdicts = benchmark.pedantic(fabric_scaling, rounds=1, iterations=1)
    assert verdicts[6] == K6_VERDICT
    print_table(
        "Scaling: per-diagnosis telemetry vs fabric size",
        ("K", "fabric switches", "hawkeye reads", "full-polling reads", "coverage"),
        rows,
    )
    (k4, n4, hk4, fp4, cov4), (k6, n6, hk6, fp6, cov6) = rows
    assert n6 > 2 * n4  # the fabric more than doubled (20 -> 45 switches)
    # Full polling pays for the whole fabric...
    assert fp6 > fp4
    # ... while Hawkeye's causal subset stays essentially constant.
    assert hk6 <= hk4 + 1
    assert cov4 == 1.0 and cov6 == 1.0


def partial_deployment():
    rows = []
    for deployed_tiers, switches in (
        ("all tiers", None),
        ("edge only", lambda name: name.startswith("E")),
    ):
        scenario = incast_on_fat_tree(4)
        net = scenario.network
        names = (
            None
            if switches is None
            else [n for n in net.switches if switches(n)]
        )
        deployment = HawkeyeDeployment(net, switches=names)
        collector = TelemetryCollector(deployment)
        engine = PollingEngine(net, deployment)
        engine.add_mirror_listener(collector.on_polling_mirror)
        DetectionAgent(net)
        net.run(scenario.duration_ns)
        collector.flush_pending(net.sim.now)
        victim = scenario.victims[0]
        traced = engine.switches_traced_for(victim.key)
        rows.append((deployed_tiers, len(traced), sorted(traced)))
    return rows


@pytest.mark.benchmark(group="scaling")
def test_partial_deployment_interrupts_tracing(benchmark):
    rows = benchmark.pedantic(partial_deployment, rounds=1, iterations=1)
    print_table(
        "Partial deployment (§5): victim's causal trace",
        ("deployment", "switches traced", "which"),
        [(d, n, ", ".join(w)) for d, n, w in rows],
    )
    full_n = rows[0][1]
    partial_n = rows[1][1]
    # Without Hawkeye on the aggregation tier, the polling trace stops at
    # the victim's ToR: the PFC causality hops away are unreachable.
    assert partial_n < full_n
    assert partial_n <= 1
