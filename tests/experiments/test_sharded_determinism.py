"""Sharded runner equivalence: byte-identical diagnoses and accounting.

The acceptance bar for the sharded simulator is not "statistically
similar" — it is *byte-identical* output.  For every anomaly class the
2-shard run must produce the same Diagnosis verdict tuple, collected
switches and accounting as the single-process engine, so that a
diagnosis made on a sharded fleet run can be trusted exactly as much as
one made in-process.

What the shard engine does *not* take is one rule
(``shardrun.serial_reason``): those configs — pipeline tracing among
them — run on ``run_scenario`` with nothing forked, which the second
half of this file pins reason by reason.
"""

import gc
import multiprocessing

import pytest

from repro.baselines import SystemKind
from repro.experiments import (
    FabricSession,
    RunConfig,
    ScenarioSpec,
    run_scenario,
    run_scenario_sharded,
    shardrun,
)
from repro.faults import FaultPlan, RetryPolicy
from repro.monitor import MonitorConfig, prometheus_text, render_dashboard
from repro.obs import ObsConfig
from repro.sim.shard import shard_build_context

ANOMALY_SCENARIOS = [
    "in-loop-deadlock",
    "out-of-loop-deadlock",
    "pfc-storm",
    "incast-backpressure",
    "lordma-attack",
    "normal-contention",
    "contention-masked-storm",
]


def _describe(result):
    diagnosis = result.diagnosis()
    return diagnosis.describe() if diagnosis else None


def accounting(result):
    """Every figure the shared epilogue accounts that is not engine-local
    (event counts, queue depths and cache rows legitimately differ: each
    shard runs its own timers and caches)."""
    counters = result.metrics.to_dict()["counters"]
    return {
        "processing_bytes": result.processing_bytes,
        "bandwidth_bytes": result.bandwidth_bytes,
        "polling_packets": result.polling_packets,
        "collections": result.collections,
        "data_pkt_hops": result.data_pkt_hops,
        "causal_switches": result.causal_switches,
        "fault_counters": result.fault_counters,
        "fault_incidents": result.fault_incidents,
        "counters": {
            name: value
            for name, value in counters.items()
            if name.startswith(("collection.", "agent.", "polling."))
        },
    }


@pytest.mark.parametrize("name", ANOMALY_SCENARIOS)
def test_two_shards_match_single_process(name):
    spec = ScenarioSpec(name, seed=1)
    single = run_scenario(spec.build(), RunConfig())
    sharded = run_scenario_sharded(spec, RunConfig(shards=2))

    assert sharded.perf is not None and sharded.perf.shards == 2
    assert _describe(sharded) == _describe(single)
    assert len(sharded.outcomes) == len(single.outcomes)
    assert sharded.collected_switches == single.collected_switches
    assert accounting(sharded) == accounting(single)


def test_worker_attach_is_the_in_process_attach():
    """A shard worker is a FabricSession on a shard view, nothing more: on
    a plan that keeps every node in shard 0 it leaves the simulator exactly
    where the in-process attach does, so an edit to the attach order cannot
    fork sharded tie-breaking silently."""
    spec = ScenarioSpec("pfc-storm", seed=1)
    config = RunConfig(
        monitor=MonitorConfig(),
        faults=FaultPlan.lossy(0.05, seed=1),
        retry=RetryPolicy(),
    )
    local = FabricSession(spec.build(), config)
    assignment = {node.name: 0 for node in local.net.topology.nodes}
    with shard_build_context(assignment, 0):
        scenario = spec.build()
    worker = FabricSession(scenario, config)

    assert local.net.shard_id is None and worker.net.shard_id == 0
    assert worker.net.sim.counters() == local.net.sim.counters()
    assert worker.net.sim.counters()["pending_entries"] > 0
    assert worker.net.sim.peek_next_time() == local.net.sim.peek_next_time()


def test_shard_request_of_one_runs_in_process():
    spec = ScenarioSpec("incast-backpressure", seed=1)
    result = run_scenario_sharded(spec, RunConfig(shards=1))
    assert result.perf.shards == 0  # in-process path
    assert result.perf.supervision == {
        "serial_reason": "the partition is a single shard"
    }
    assert _describe(result) is not None


@pytest.mark.parametrize("reason, mode", [
    pytest.param(
        "fault injection", dict(faults=FaultPlan.lossy(0.1, seed=11)),
        id="faults",
    ),
    pytest.param("a retry policy", dict(retry=RetryPolicy()), id="retry"),
    pytest.param(
        "the fabric monitor", dict(monitor=MonitorConfig()), id="monitor"
    ),
    pytest.param(
        "per-packet sim tracing",
        dict(obs=ObsConfig(trace=True, sim_events=True)),
        id="sim_events",
    ),
    pytest.param(
        "pipeline tracing", dict(obs=ObsConfig(trace=True)), id="trace",
    ),
    pytest.param(
        "a collect-everywhere system", dict(system=SystemKind.FULL_POLLING),
        id="full_polling",
    ),
])
def test_serial_reason_reroutes(reason, mode, monkeypatch):
    """A config the engine does not take is the serial run, not an error:
    nothing forks, the reason is recorded, every figure equals serial."""
    spec = ScenarioSpec("pfc-storm", seed=5)
    serial = run_scenario(spec.build(), RunConfig(**mode))

    children_at_run = []
    real_run = shardrun.run_scenario

    def spy(scenario, config):
        children_at_run.append(multiprocessing.active_children())
        return real_run(scenario, config)

    monkeypatch.setattr(shardrun, "run_scenario", spy)
    sharded = run_scenario_sharded(spec, RunConfig(shards=2, **mode))

    assert children_at_run == [[]]
    assert sharded.perf.shards == 0
    assert sharded.perf.supervision == {"serial_reason": reason}
    assert _describe(sharded) == _describe(serial)
    assert sharded.fault_incidents == serial.fault_incidents
    assert sharded.fault_counters == serial.fault_counters
    assert accounting(sharded) == accounting(serial)
    if "monitor" in mode:
        # The serial stream itself, in rule-table order, on an object both
        # exporters take.
        assert sharded.monitor.alerts == serial.monitor.alerts
        assert sharded.monitor.alerts
        assert render_dashboard(sharded.monitor)
        assert prometheus_text(sharded.monitor)
    if "obs" in mode:
        # Serial is byte-identical, so the records compare raw.
        assert sharded.obs.tracer.records() == serial.obs.tracer.records()
        assert sharded.obs.tracer.records()


def test_zero_fault_plan_matches_fault_free_run():
    """An all-zero FaultPlan must not perturb the sharded fast path."""
    spec = ScenarioSpec("incast-backpressure", seed=1)
    plain = run_scenario_sharded(spec, RunConfig(shards=2))
    zeroed = run_scenario_sharded(
        spec, RunConfig(shards=2, faults=FaultPlan(seed=99))
    )
    assert zeroed.perf.shards == 2  # a disabled plan is no reason
    assert _describe(zeroed) == _describe(plain)
    assert zeroed.fault_incidents == [] and zeroed.fault_counters == {}
    assert zeroed.collected_switches == plain.collected_switches
    assert accounting(zeroed) == accounting(plain)


def test_untraced_obs_config_stays_on_the_shard_engine():
    """An ObsConfig with tracing off is no reason either: the request
    forks, and carries no tracer back."""
    spec = ScenarioSpec("incast-backpressure", seed=1)
    plain = run_scenario_sharded(spec, RunConfig(shards=2))
    untraced = run_scenario_sharded(spec, RunConfig(shards=2, obs=ObsConfig()))
    assert untraced.perf.shards == 2
    assert "serial_reason" not in untraced.perf.supervision
    assert untraced.obs is None
    assert _describe(untraced) == _describe(plain)
    assert untraced.collected_switches == plain.collected_switches
    assert accounting(untraced) == accounting(plain)


def test_traced_shard_request_writes_the_serial_jsonl(tmp_path):
    """``jsonl_path`` on a sharded request streams the serial run's file,
    byte for byte, since the request runs on the serial engine."""
    spec = ScenarioSpec("incast-backpressure", seed=1)
    serial_path = tmp_path / "serial.jsonl"
    sharded_path = tmp_path / "sharded.jsonl"
    run_scenario(
        spec.build(),
        RunConfig(obs=ObsConfig(trace=True, jsonl_path=str(serial_path))),
    )
    sharded_obs = ObsConfig(trace=True, jsonl_path=str(sharded_path))
    sharded = run_scenario_sharded(spec, RunConfig(shards=2, obs=sharded_obs))
    assert sharded.perf.supervision == {"serial_reason": "pipeline tracing"}
    written = sharded_path.read_bytes()
    assert written == serial_path.read_bytes()
    assert written.count(b"\n") == len(sharded.obs.tracer.records())


def test_worker_keeps_no_collector_policy_of_its_own(monkeypatch):
    """Between epochs a worker's collector is as the parent left it (the
    hook runs there); sweeps are off only inside ``shard_run``, the way
    ``FabricSession.advance`` has them off.  A worker that switched it off
    for good is killed by the hook and shows up as a serial rerun."""
    monkeypatch.setattr(
        shardrun, "_TEST_WORKER_ABORT",
        lambda shard_id, epoch_no: None if gc.isenabled() else "sigkill",
    )
    assert gc.isenabled()
    spec = ScenarioSpec("incast-backpressure", seed=1)
    single = run_scenario(spec.build(), RunConfig())
    sharded = run_scenario_sharded(spec, RunConfig(shards=2))
    assert sharded.perf.shards == 2
    assert "fallback_ran" not in sharded.perf.supervision
    assert _describe(sharded) == _describe(single)
    assert accounting(sharded) == accounting(single)


def test_sharded_perf_accounting_present():
    spec = ScenarioSpec("incast-backpressure", seed=1)
    result = run_scenario_sharded(spec, RunConfig(shards=2))
    stats = result.perf
    assert stats.shards == 2
    assert stats.barrier_epochs > 0
    assert stats.aggregate_events_per_sec > 0
