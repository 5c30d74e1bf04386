"""Figure 10: diagnosis effectiveness of different telemetry granularities.

Port-level-only telemetry still traces PFC spreading but cannot identify
the root-cause flows; flow-level-only telemetry sees per-flow impact but
cannot trace PFC.  Both fall well below the combined (Hawkeye) system when
monitoring traffic containing the mix of anomalies.
"""

import os

import pytest

from conftest import ANOMALY_BUILDERS, BENCH_SEEDS, print_table
from repro.baselines import SystemKind
from repro.experiments import AccuracyCounter, grid, run_sweep

MODES = [SystemKind.HAWKEYE, SystemKind.PORT_ONLY, SystemKind.FLOW_ONLY]


def sweep():
    results = {mode: AccuracyCounter() for mode in MODES}
    for result in run_sweep(
        grid(list(ANOMALY_BUILDERS), systems=MODES),
        seeds=range(1, BENCH_SEEDS + 1),
        jobs=os.cpu_count(),
    ):
        for summary in result.summaries:
            results[result.config.system].add(summary)
    return results


@pytest.mark.benchmark(group="fig10")
def test_fig10_telemetry_granularity(benchmark):
    results = benchmark.pedantic(sweep, rounds=1, iterations=1)

    rows = [
        (mode.value, f"{acc.precision:.2f}", f"{acc.recall:.2f}", acc.total)
        for mode, acc in results.items()
    ]
    print_table(
        "Figure 10: telemetry granularity ablation (mixed anomalies)",
        ("telemetry", "precision", "recall", "runs"),
        rows,
    )

    hawkeye = results[SystemKind.HAWKEYE]
    port_only = results[SystemKind.PORT_ONLY]
    flow_only = results[SystemKind.FLOW_ONLY]

    # The combined telemetry dominates both ablations.
    assert hawkeye.precision > port_only.precision
    assert hawkeye.precision > flow_only.precision
    assert hawkeye.precision >= 0.75

    # Port-only cannot name flow root causes; flow-only cannot trace PFC:
    # both lose most of the mixed-anomaly precision.
    assert port_only.precision <= 0.6
    assert flow_only.precision <= 0.6
