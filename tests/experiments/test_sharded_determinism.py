"""The shard engine's own rules; its verdicts are in the matrix.

That a 2-shard run matches the serial engine, builder by builder, is the
``shards=2`` row of ``tests/test_determinism_matrix.py``.  What stays here
is what is particular to the engine: a worker attaches exactly as the
in-process session does, a one-shard request runs in process, and what
the engine does *not* take is one rule (``shardrun.serial_reason``) —
those configs, pipeline tracing among them, run on ``run_scenario`` with
nothing forked, which this file pins reason by reason.
"""

import multiprocessing

import pytest

from tests.test_determinism_matrix import fingerprint

from repro.baselines import SystemKind
from repro.experiments import (
    FabricSession,
    RunConfig,
    ScenarioSpec,
    run_scenario,
    run_scenario_sharded,
    shardrun,
)
from repro.faults import FaultPlan
from repro.monitor import MonitorConfig, prometheus_text, render_dashboard
from repro.obs import ObsConfig
from repro.sim.shard import shard_build_context


def test_worker_attach_is_the_in_process_attach():
    """A shard worker is a FabricSession on a shard view, nothing more: on
    a plan that keeps every node in shard 0 it leaves the simulator exactly
    where the in-process attach does, so an edit to the attach order cannot
    fork sharded tie-breaking silently."""
    spec = ScenarioSpec("pfc-storm", seed=1)
    config = RunConfig(
        monitor=MonitorConfig(),
        faults=FaultPlan.lossy(0.05, seed=1),
        retry=True,
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
    assert result.diagnosis() is not None


@pytest.mark.parametrize("reason, mode", [
    pytest.param(
        "fault injection", dict(faults=FaultPlan.lossy(0.1, seed=11)),
        id="faults",
    ),
    pytest.param("a retry policy", dict(retry=True), id="retry"),
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
    assert fingerprint(sharded) == fingerprint(serial)
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


def test_sharded_perf_accounting_present():
    spec = ScenarioSpec("incast-backpressure", seed=1)
    result = run_scenario_sharded(spec, RunConfig(shards=2))
    stats = result.perf
    assert stats.shards == 2
    assert stats.barrier_epochs > 0
    assert stats.aggregate_events_per_sec > 0
