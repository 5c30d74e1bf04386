"""Ablation benches for the design choices DESIGN.md calls out.

1. Port-pair meters vs ITSY-style 1-bit presence: without the Figure-3
   meters the causality multicast floods every paused egress, collecting
   causally irrelevant switches.
2. Paused-packet exclusion in the contention replay: without it, PFC
   buildup at an injection point reads as flow contention and storms are
   misdiagnosed as back-pressure-by-contention.
"""

import pytest

from conftest import print_table
from repro.core import AnomalyType
from repro.experiments import RunConfig, diagnosis_correct, run_scenario
from repro.sim import Network, SimConfig
from repro.sim.config import PfcConfig
from repro.topology import build_fat_tree
from repro.units import KB, msec, usec
from repro.workloads import inject_pfc, pfc_storm_scenario, start_flows
from repro.workloads.scenario import GroundTruth, Scenario


def dual_incast_scenario(seed=1):
    """Figure-3's motivating situation: the victim's aggregation switch has
    TWO PFC-paused egress ports, but only one of them is fed by the
    victim's ingress.  The port-pair meters keep the causality trace on the
    relevant branch; a 1-bit presence check (ITSY-style) floods both and
    drags in the other anomaly's whole subtree."""
    topo = build_fat_tree(k=4)
    config = SimConfig(pfc=PfcConfig(xoff_bytes=80 * KB, xon_bytes=40 * KB))
    config.seed = seed
    net = Network(topo, config=config)
    # Anomaly A (the victim's): incast into H0_0_0.
    sources = ["H1_0_0", "H1_0_1", "H1_1_0", "H1_1_1", "H2_0_0", "H2_0_1"]
    culprits = start_flows(net, sources, "H0_0_0", 700 * KB, usec(40))
    # Anomaly B (irrelevant to the victim): a PFC storm at a pod-1 host,
    # fed by a flow from E0_0 — its back-pressure freezes A0_0's
    # core-facing egress, giving A0_0 a second paused egress port that the
    # victim's ingress does NOT feed.
    start_flows(net, ["H0_0_1"], "H1_0_1", 1_500 * KB, usec(1), port=21000)
    inject_pfc(net, "H1_0_1", usec(5), msec(3))
    victims = start_flows(net, ["H0_1_0"], "H0_0_1", 2_000 * KB, usec(10), port=12000)
    truth = GroundTruth(
        anomaly=AnomalyType.MICRO_BURST_INCAST,
        culprit_flows=[f.key for f in culprits],
        initial_port=topo.attachment_of("H0_0_0"),
    )
    return Scenario(
        name=f"dual-incast-seed{seed}", network=net, truth=truth,
        victims=victims, duration_ns=msec(4),
        description="Two concurrent incasts; only one is causal for the victim.",
    )


def meter_granularity():
    with_meters = run_scenario(dual_incast_scenario(seed=1), RunConfig(use_meters=True))
    without_meters = run_scenario(dual_incast_scenario(seed=1), RunConfig(use_meters=False))
    return with_meters, without_meters


@pytest.mark.benchmark(group="ablation")
def test_ablation_meter_granularity(benchmark):
    with_meters, without_meters = benchmark.pedantic(
        meter_granularity, rounds=1, iterations=1
    )
    print_table(
        "Ablation: Figure-3 meters vs 1-bit traffic presence (ITSY-style)",
        ("variant", "switches traced", "causal coverage"),
        [
            ("port-pair meters", len(with_meters.used_switches()),
             f"{with_meters.causal_coverage:.2f}"),
            ("1-bit presence", len(without_meters.used_switches()),
             f"{without_meters.causal_coverage:.2f}"),
        ],
    )
    # Both reach the causal switches, but the 1-bit variant drags in the
    # other anomaly's subtree (causally irrelevant switches).
    assert with_meters.causal_coverage == 1.0
    assert len(without_meters.used_switches()) > len(with_meters.used_switches())


def paused_exclusion():
    rows = []
    for exclude in (True, False):
        scenario = pfc_storm_scenario(seed=1)
        result = run_scenario(
            scenario, RunConfig(exclude_paused_in_contention=exclude)
        )
        d = result.diagnosis()
        correct = d is not None and diagnosis_correct(d, scenario.truth)
        anomaly = d.primary().anomaly.value if d else "none"
        rows.append((exclude, correct, anomaly))
    return rows


@pytest.mark.benchmark(group="ablation")
def test_ablation_paused_packet_exclusion(benchmark):
    rows = benchmark.pedantic(paused_exclusion, rounds=1, iterations=1)
    print_table(
        "Ablation: paused-packet exclusion in contention replay (PFC storm)",
        ("exclude paused", "diagnosis correct", "anomaly reported"),
        rows,
    )
    by_flag = {r[0]: r for r in rows}
    assert by_flag[True][1], "with exclusion the storm is identified"
    # Without the exclusion the frozen queue's occupants read as
    # contention contributors: the diagnosis degrades.
    assert not by_flag[False][1] or by_flag[False][2] != "pfc-storm"
