"""Sharded fault injection: chaos parity at scale.

Per-shard injectors draw every fault fate from ``(category, entity)``
RNG streams, so a switch's faults are identical whether it is simulated
in-process or in any worker — and the per-shard incident logs merge
canonically.  The acceptance bar mirrors the sharding bar itself: for
the anomaly classes under ≤10% control-path loss, ``shards=N`` must
produce the same verdicts, the same merged incident log, and the same
fault counters as the single-process chaos run; monitor-on sharded runs
must raise the same alerts.
"""

import multiprocessing

import pytest

from repro.experiments import (
    RunConfig,
    ScenarioSpec,
    run_scenario,
    run_scenario_sharded,
)
from repro.faults import FaultPlan, RetryPolicy
from repro.faults.chaos import run_chaos_cell
from repro.monitor import MonitorConfig
from repro.monitor.merge import alert_sort_key
from repro.units import usec
from tests.experiments.test_sharded_determinism import accounting

pytestmark = pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(),
    reason="sharded chaos tests need the fork start method",
)

CHAOS_SCENARIOS = [
    "pfc-storm",
    "in-loop-deadlock",
    "out-of-loop-deadlock",
    "incast-backpressure",
    "lordma-attack",
]

LOSSY = FaultPlan.lossy(0.10, seed=11)

# Every fault category at once, all within the ≤10% chaos envelope.
FULL_PLAN = FaultPlan(
    seed=3,
    polling_loss_rate=0.08,
    polling_corrupt_rate=0.02,
    report_loss_rate=0.08,
    report_truncate_rate=0.05,
    report_delay_rate=0.05,
    dma_failure_rate=0.05,
    dma_stale_rate=0.05,
    agent_restart_rate=0.02,
    clock_skew_max_ns=usec(2),
)


def _chaos_fingerprint(result):
    return (
        [
            o.diagnosis.describe() if o.diagnosis is not None else None
            for o in result.outcomes
        ],
        result.fault_incidents,
        result.fault_counters,
    )


@pytest.mark.parametrize("name", CHAOS_SCENARIOS)
def test_lossy_parity_two_shards(name):
    """10% loss + retries: verdicts and incident logs match in-process."""
    spec = ScenarioSpec(name, seed=5)
    config = dict(faults=LOSSY, retry=RetryPolicy())
    serial = run_scenario(spec.build(), RunConfig(**config))
    sharded = run_scenario_sharded(spec, RunConfig(shards=2, **config))
    assert _chaos_fingerprint(sharded) == _chaos_fingerprint(serial)
    assert accounting(sharded) == accounting(serial)


def test_full_category_parity_across_shard_counts():
    """Every fault category at once, identical at shards 1, 2 and 4."""
    spec = ScenarioSpec("pfc-storm", seed=5)
    config = dict(faults=FULL_PLAN, retry=RetryPolicy())
    serial = _chaos_fingerprint(run_scenario(spec.build(), RunConfig(**config)))
    assert serial[1], "plan injected nothing; parity check is vacuous"
    for shards in (2, 4):
        sharded = run_scenario_sharded(spec, RunConfig(shards=shards, **config))
        assert _chaos_fingerprint(sharded) == serial, f"shards={shards}"


def test_monitor_alert_parity():
    """Per-shard monitors merge to the single-process alert stream.

    The merged stream is canonically sorted; the in-process monitor
    emits same-instant alerts in rule-table order — so compare against
    the canonical sort of the serial stream.
    """
    spec = ScenarioSpec("pfc-storm", seed=7)
    config = dict(
        faults=LOSSY, retry=RetryPolicy(), monitor=MonitorConfig()
    )
    serial = run_scenario(spec.build(), RunConfig(**config))
    sharded = run_scenario_sharded(spec, RunConfig(shards=2, **config))
    assert sharded.monitor is not None
    assert sharded.monitor.alerts == sorted(
        serial.monitor.alerts, key=alert_sort_key
    )
    assert len(sharded.monitor.timeline.incidents) == len(
        serial.monitor.timeline.incidents
    )
    counters = sharded.monitor.counters()
    assert counters["alerts_total"] == len(serial.monitor.alerts)
    assert counters["samples"] == serial.monitor.counters()["samples"]


def test_chaos_cell_runs_sharded():
    """The chaos harness itself can run cells on the sharded engine."""
    cell = run_chaos_cell(
        "pfc-storm", FaultPlan.lossy(0.05, seed=1), RetryPolicy(), 0.05,
        shards=2,
    )
    assert not cell.crashed, cell.error
    assert not cell.wrong_full_confidence
    assert cell.incident_log  # faults actually fired through the shards

    serial = run_chaos_cell(
        "pfc-storm", FaultPlan.lossy(0.05, seed=1), RetryPolicy(), 0.05
    )
    assert cell.diagnosed == serial.diagnosed
    assert cell.incident_log == serial.incident_log
    assert cell.fault_counters == serial.fault_counters


def test_retry_policy_tighter_than_lookahead_falls_back_serially():
    """A retry whose first check can land inside one epoch cannot be
    sharded safely; the runner must detect it and go serial."""
    spec = ScenarioSpec("pfc-storm", seed=5)
    tight = RetryPolicy(report_timeout_ns=1)
    result = run_scenario_sharded(
        spec, RunConfig(shards=2, faults=LOSSY, retry=tight)
    )
    # Serial execution: no barrier accounting on the result.
    assert result.perf is None or result.perf.shards <= 1
