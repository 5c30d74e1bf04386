"""Figure 8: precision/recall upper bound of Hawkeye vs baselines.

Baselines: SpiderMon and NetSight (traditional, PFC-blind), plus the
"full polling" and "victim-only" methods derived from Hawkeye.  Expected
shape: Hawkeye ~ full-polling on every anomaly; victim-only close on
non-loop anomalies but weak on deadlocks; the traditional systems only
handle normal flow contention.
"""

import os

import pytest

from conftest import ANOMALY_BUILDERS, BENCH_SEEDS, print_table
from repro.baselines import SystemKind
from repro.experiments import grid, run_sweep

SYSTEMS = [
    SystemKind.HAWKEYE,
    SystemKind.FULL_POLLING,
    SystemKind.VICTIM_ONLY,
    SystemKind.SPIDERMON,
    SystemKind.NETSIGHT,
]


def sweep():
    results = run_sweep(
        grid(list(ANOMALY_BUILDERS), systems=SYSTEMS),
        seeds=range(1, BENCH_SEEDS + 1),
        jobs=os.cpu_count(),
    )
    return {(r.scenario, r.config.system): r.accuracy for r in results}


@pytest.mark.benchmark(group="fig8")
def test_fig8_accuracy_vs_baselines(benchmark):
    results = benchmark.pedantic(sweep, rounds=1, iterations=1)

    rows = [
        (scenario, system.value, f"{acc.precision:.2f}", f"{acc.recall:.2f}")
        for (scenario, system), acc in sorted(
            results.items(), key=lambda kv: (kv[0][0], kv[0][1].value)
        )
    ]
    print_table(
        "Figure 8: precision & recall upper bound vs baselines",
        ("anomaly", "system", "precision", "recall"),
        rows,
    )

    def precision(scenario, system):
        return results[(scenario, system)].precision

    pfc_anomalies = [
        "incast-backpressure", "pfc-storm", "in-loop-deadlock", "out-of-loop-deadlock",
    ]

    # Hawkeye handles every PFC anomaly; its average matches full polling.
    hk = sum(precision(s, SystemKind.HAWKEYE) for s in pfc_anomalies) / 4
    fp = sum(precision(s, SystemKind.FULL_POLLING) for s in pfc_anomalies) / 4
    assert hk >= 0.75
    assert abs(hk - fp) <= 0.25, "Hawkeye should match full polling"

    # Victim-only breaks on deadlocks (incomplete loop coverage) ...
    vo_deadlock = (
        precision("in-loop-deadlock", SystemKind.VICTIM_ONLY)
        + precision("out-of-loop-deadlock", SystemKind.VICTIM_ONLY)
    ) / 2
    hk_deadlock = (
        precision("in-loop-deadlock", SystemKind.HAWKEYE)
        + precision("out-of-loop-deadlock", SystemKind.HAWKEYE)
    ) / 2
    assert vo_deadlock < hk_deadlock
    # ... but is close to Hawkeye when the victim crosses the initial point.
    assert precision("incast-backpressure", SystemKind.VICTIM_ONLY) >= 0.5

    # Traditional PFC-blind systems cannot diagnose PFC anomalies ...
    for system in (SystemKind.SPIDERMON, SystemKind.NETSIGHT):
        blind = sum(precision(s, system) for s in pfc_anomalies) / 4
        assert blind <= 0.25, f"{system.value} should be blind to PFC anomalies"
        # ... despite being effective on normal flow contention.
        assert precision("normal-contention", system) >= 0.5
