"""Figure 7: precision & recall per anomaly over epoch sizes and detection
thresholds.

The paper sweeps the detection threshold (200%-500% of RTT) and the epoch
size (100 us - 2 ms) and reports per-anomaly precision/recall, observing
that precision is governed mainly by the epoch size (longer epochs conflate
events) while recall stays ~100%.
"""

import itertools
import os

import pytest

from conftest import ANOMALY_BUILDERS, BENCH_SEEDS, print_table
from repro.experiments import grid, run_sweep
from repro.units import msec, usec

EPOCH_SIZES = {
    "100us": usec(100),
    "500us": usec(500),
    "1ms": msec(1),
    "2ms": msec(2),
}
THRESHOLDS = {"200%": 2.0, "300%": 3.0, "500%": 5.0}


def sweep():
    cells = grid(
        list(ANOMALY_BUILDERS),
        epoch_sizes_ns=list(EPOCH_SIZES.values()),
        thresholds=list(THRESHOLDS.values()),
    )
    results = run_sweep(
        cells, seeds=range(1, BENCH_SEEDS + 1), jobs=os.cpu_count()
    )
    keys = itertools.product(ANOMALY_BUILDERS, EPOCH_SIZES, THRESHOLDS)
    return {key: result.accuracy for key, result in zip(keys, results)}


@pytest.mark.benchmark(group="fig7")
def test_fig7_precision_recall_sweep(benchmark):
    results = benchmark.pedantic(sweep, rounds=1, iterations=1)

    rows = [
        (scenario, epoch, thr, f"{acc.precision:.2f}", f"{acc.recall:.2f}")
        for (scenario, epoch, thr), acc in sorted(results.items())
    ]
    print_table(
        "Figure 7: precision & recall vs epoch size x detection threshold",
        ("anomaly", "epoch", "threshold", "precision", "recall"),
        rows,
    )

    # Shape 1: with well-configured parameters (1 ms epochs, 300% threshold)
    # every anomaly class is diagnosed with high precision and recall.
    for scenario_name in ANOMALY_BUILDERS:
        acc = results[(scenario_name, "1ms", "300%")]
        assert acc.precision >= 0.5, f"{scenario_name} precision collapsed at optimum"
        assert acc.recall >= 0.5, f"{scenario_name} not detected at optimum"

    # Shape 2: recall is driven by detection, so averaged over anomalies it
    # stays high at the paper's default threshold across epoch sizes.
    for epoch_name in EPOCH_SIZES:
        recalls = [
            results[(s, epoch_name, "300%")].recall for s in ANOMALY_BUILDERS
        ]
        assert sum(recalls) / len(recalls) >= 0.7

    # Shape 3: growing the epoch does not improve average precision (event
    # conflation can only hurt), matching the paper's epoch-size trend.
    def avg_precision(epoch_name):
        accs = [results[(s, epoch_name, "300%")] for s in ANOMALY_BUILDERS]
        return sum(a.precision for a in accs) / len(accs)

    assert avg_precision("2ms") <= avg_precision("500us") + 0.2
