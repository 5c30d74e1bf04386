"""What a run's ``--metrics-json`` holds, and that it holds each number once.

An injected fault is tallied only by the injector (``faults.<kind>``, one
per incident-log entry); no component keeps a second count of the same
events.  ``PerfStats``, the in-process record the benchmark reads, is
carried by the registry the export writes, shard figures included.
"""

from collections import Counter
from dataclasses import asdict

import pytest

from repro.experiments import ScenarioSpec, run_scenario_sharded
from repro.experiments.runner import RunConfig, run_scenario
from repro.faults import CHAOS_SCENARIOS, FaultPlan
from repro.units import usec
from repro.workloads import SCENARIO_BUILDERS

# A deleted component counter and the injector kinds that count its events.
TWINS = {
    "collection.stale_reads": ("dma_read_stale",),
    "collection.reports_lost": ("report_lost",),
    "collection.reports_truncated": ("report_truncated",),
    "collection.reports_delayed": ("report_delayed",),
    "collection.dma_retries": ("dma_read_retried",),
    "collection.dma_reads_abandoned": ("dma_read_abandoned",),
    "polling.packets_lost": ("polling_packet_lost", "polling_packet_corrupted"),
    "agent.restarts": ("agent_restarted",),
}

ALL_KINDS = FaultPlan(
    seed=1,
    polling_loss_rate=0.1,
    polling_corrupt_rate=0.05,
    report_loss_rate=0.1,
    report_truncate_rate=0.1,
    report_delay_rate=0.1,
    dma_failure_rate=0.1,
    dma_stale_rate=0.1,
    agent_restart_rate=0.05,
    clock_skew_max_ns=usec(20),
)

# ``repro chaos --loss-rates 0 0.1 0.25``, with and without retries.
GRID = [
    (name, FaultPlan.lossy(rate, 1), retry)
    for retry in (True, False)
    for rate in (0.0, 0.1, 0.25)
    for name in CHAOS_SCENARIOS
]
ALL_KINDS_CELLS = [
    (name, ALL_KINDS, retry)
    for retry in (True, False)
    for name in ("pfc-storm", "out-of-loop-deadlock")
]


def _counters(name, plan, retry):
    result = run_scenario(
        SCENARIO_BUILDERS[name](seed=1), RunConfig(faults=plan, retry=retry)
    )
    return result, result.metrics.to_dict()["counters"]


def _tally(counters, kinds):
    return sum(counters.get(f"faults.{kind}", 0) for kind in kinds)


@pytest.mark.parametrize(
    "name, plan, retry", GRID + ALL_KINDS_CELLS,
    ids=lambda v: v.describe() if isinstance(v, FaultPlan) else str(v),
)
def test_only_the_fault_tally_counts_a_fault(name, plan, retry):
    result, counters = _counters(name, plan, retry)
    for copy in TWINS:
        assert copy not in counters
    incidents = Counter(
        line.split(" @ ")[0].split()[-1] for line in result.fault_incidents
    )
    assert result.fault_counters == incidents
    for kind, count in incidents.items():
        assert counters[f"faults.{kind}"] == count


def test_the_all_kinds_cells_fire_every_kind():
    seen = dict.fromkeys(TWINS, 0)
    for cell in ALL_KINDS_CELLS:
        _, counters = _counters(*cell)
        for copy, kinds in TWINS.items():
            seen[copy] += _tally(counters, kinds)
    assert all(seen.values()), seen


@pytest.mark.parametrize("builder", sorted(SCENARIO_BUILDERS))
def test_the_registry_carries_every_perf_number(builder):
    result = run_scenario(SCENARIO_BUILDERS[builder](seed=1))
    doc = result.metrics.to_dict()
    counters, gauges, histograms = (
        doc["counters"], doc["gauges"], doc["histograms"]
    )
    perf = asdict(result.perf)
    assert perf.pop("scenario") == result.scenario.name
    wall_s = perf.pop("wall_s")
    assert gauges["run.wall_s"] == wall_s
    assert counters["sim.events_run"] == perf.pop("events_run")
    assert perf.pop("events_per_sec") == counters["sim.events_run"] / wall_s
    assert counters["sim.max_pending_entries"] == perf.pop("peak_pending_events")
    assert counters["sim.events_purged"] == perf.pop("events_purged")
    assert counters["sim.compactions"] == perf.pop("compactions")
    for cache, tally in perf.pop("caches").items():
        for key, value in tally.items():
            assert counters[f"cache.{cache}.{key}"] == value
    # Every epoch miss either shared entries or rebuilt them.
    assert (
        counters["cache.telemetry_epoch_share.hits"]
        + counters["cache.telemetry_epoch_share.misses"]
        == counters["cache.telemetry_epoch_materialize.misses"]
    )
    stages = perf.pop("stages")
    assert stages
    for stage, entry in stages.items():
        histogram = histograms[f"stage.{stage}_s"]
        assert (histogram["sum"], histogram["count"]) == (
            entry["wall_s"], entry["calls"]
        )
    # The shard engine's figures are all zero on a serial run.
    assert perf == dict(
        shards=0, barrier_epochs=0, barrier_stall_s=0.0,
        aggregate_events_per_sec=0.0, transport={}, supervision={},
    )


def test_a_serial_runs_perf_stages_are_its_registrys_stages():
    result = run_scenario(SCENARIO_BUILDERS["pfc-storm"](seed=1))
    assert result.perf.stages == result.metrics.stages()
    assert list(result.perf.stages) == [
        "diagnose", "flush_pending", "graph_build", "qualify",
        "select_reports", "simulate",
    ]


def test_a_sharded_run_writes_its_shard_figures():
    result = run_scenario_sharded(
        ScenarioSpec("pfc-storm", seed=1), RunConfig(shards=2)
    )
    perf = result.perf
    assert perf.shards == 2
    doc = result.metrics.to_dict()
    counters, gauges = doc["counters"], doc["gauges"]
    assert counters["shard.shards"] == perf.shards
    assert counters["shard.barrier_epochs"] == perf.barrier_epochs > 0
    assert counters["shard.pipe_frames"] == perf.transport["pipe_frames"] > 0
    assert gauges["shard.barrier_stall_s"] == perf.barrier_stall_s
    assert gauges["shard.events_per_s_cpu_model"] == perf.aggregate_events_per_sec
    for stage in ("shard_run", "shard_transport"):
        entry = perf.stages[stage]
        name = "shard." + stage[len("shard_"):]
        assert counters[f"{name}.calls"] == entry["calls"]
        assert gauges[f"{name}.wall_s"] == entry["wall_s"]
        assert gauges[f"{name}.max_wall_s"] == entry["max_wall_s"]
