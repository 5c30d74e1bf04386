"""Extension bench: diagnosing a LoRDMA-style low-rate PFC attack (§2.1).

The paper notes PFC back-pressure "can also be potentially exploited by
attackers, such as LoRDMA attacks" — synchronized low-average-rate burst
pulses that covertly degrade a victim tenant.  This bench shows Hawkeye
catches the attack at the paper's sensitive (200% RTT) detection setting
and attributes it to the attack flows without blaming the victim.
"""

import os

import pytest

from conftest import BENCH_SEEDS, print_table
from repro.experiments import grid, run_sweep


def blamed_victim(summary):
    """Does the verdict name the complaining victim among the culprits?"""
    d = summary.diagnosis
    return d is not None and d.victim in d.primary().culprit_keys()


def sweep():
    results = run_sweep(
        grid(["lordma-attack"], thresholds=(2.0, 3.0)),
        seeds=range(1, BENCH_SEEDS + 1),
        jobs=os.cpu_count(),
    )
    return [
        (
            r.config.threshold_multiplier,
            r.accuracy,
            sum(blamed_victim(s) for s in r.summaries),
        )
        for r in results
    ]


@pytest.mark.benchmark(group="lordma")
def test_lordma_attack_diagnosis(benchmark):
    rows = benchmark.pedantic(sweep, rounds=1, iterations=1)
    print_table(
        "Extension: LoRDMA-style low-rate attack vs detection threshold",
        ("threshold", "precision", "recall", "victim blamed"),
        [
            (f"{int(t * 100)}%", f"{acc.precision:.2f}", f"{acc.recall:.2f}", blamed)
            for t, acc, blamed in rows
        ],
    )
    by_threshold = {t: (acc, blamed) for t, acc, blamed in rows}
    acc_200, blamed_200 = by_threshold[2.0]
    # At the sensitive setting the covert attack is caught and attributed.
    assert acc_200.precision >= 0.5
    assert acc_200.recall >= 0.5
    assert blamed_200 == 0, "the victim must never be blamed for the attack"
    # The attack's covertness: a lax threshold can miss it entirely -
    # detection never improves as the threshold loosens.
    acc_300, _ = by_threshold[3.0]
    assert acc_300.recall <= acc_200.recall
