"""The determinism matrix: every execution mode against one serial run.

Hawkeye must reach the same verdict from the same telemetry however the
fabric was run.  Each section below is one row, an execution mode; each
cell runs one (builder, seed) in that mode and compares its
:func:`fingerprint` with the serial run's.  :func:`serial` computes a
baseline once per session and caches it as plain data, so the rows share
their baselines.  A row may exclude the fields its mode legitimately
moves (``EXCLUDED``, with the reason); every other field must be
identical.  DESIGN.md "Determinism contract" is the same table in prose.
"""

import asyncio
import dataclasses
import functools
import gc
import itertools
import os
import tempfile

import pytest

from tests.serve.conftest import serving  # noqa: F401  (a fixture)

from repro.experiments import (
    FabricSession,
    RunConfig,
    ScenarioSpec,
    run_scenario,
    run_scenario_sharded,
    run_scenarios_parallel,
    shardrun,
    summarize_run,
)
from repro.faults import FaultPlan
from repro.fuzz import FuzzConfig, ScenarioGenome, observe, run_fuzz
from repro.monitor import MonitorConfig, jsonl_snapshot, prometheus_text
from repro.obs import ObsConfig
from repro.serve import ServeClient, ServeConfig
from repro.serve import service as service_module
from repro.workloads import SCENARIO_BUILDERS

# The seven K=4 anomaly builders: every builder but the two fleet fabrics.
ANOMALY_BUILDERS = sorted(
    set(SCENARIO_BUILDERS) - {"fleet-incast-k8", "fleet-incast-k16"}
)
STORM_GENOME = ScenarioSpec("genome", genome_json=dataclasses.replace(
    ScenarioGenome(), storm_us=2500, storm_start_us=80
).normalized().to_json())

# Named run configurations.  ``obs`` holds ObsConfig keyword arguments:
# a traced run writes its JSONL to a scratch file the fingerprint reads.
CONFIGS = {
    "plain": {},
    "monitor": {"monitor": MonitorConfig()},
    "zero-plan": {"faults": FaultPlan(seed=1)},
    "lossy": {"faults": FaultPlan.lossy(0.2)},
    "lossy-fault-seed-2": {"faults": FaultPlan.lossy(0.2, seed=2)},
    "lossy+retry": {"faults": FaultPlan.lossy(0.2), "retry": True},
    "chaos+traced": {
        "faults": FaultPlan(seed=7, polling_loss_rate=0.1,
                            report_loss_rate=0.1, dma_failure_rate=0.1),
        "retry": True,
        "obs": {"trace": True},
    },
    "traced": {"obs": {"trace": True}},
    "monitor+traced": {"monitor": MonitorConfig(), "obs": {"trace": True}},
    "sim-events": {"obs": {"trace": True, "sim_events": True}},
}

# Fingerprint fields a row may move, and why.  The rows not named here
# (repeat, pool, zero-fault plan, chopped, served) move none.
EXCLUDED = {
    # Each shard runs its own timers, queue and compactions, so event
    # counts are engine-local (the summary carries ``events_run`` too).
    "shards": ("events_run", "sim", "summary"),
    # The sampler is a sim event of its own, and alerts, alert categories
    # and alert counts exist only with the monitor on.
    "monitor": ("events_run", "sim", "summary", "observation", "monitor"),
    # The trace exists only with the tracer on, which also counts its own
    # spans into the registry (``polling.rounds``).
    "tracer": ("jsonl", "counters"),
}


def fingerprint(result):
    """Everything a run decides, as plain comparable data."""
    victims = []
    for outcome in result.outcomes:
        diagnosis = outcome.diagnosis
        victims.append({
            "victim": str(outcome.victim),
            "trigger_ns": outcome.trigger and outcome.trigger.time_ns,
            "describe": diagnosis and diagnosis.describe(),
            "confidence": diagnosis and diagnosis.confidence,
            "completeness": diagnosis and diagnosis.completeness,
            "missing": diagnosis and diagnosis.missing_switches,
            "degraded": diagnosis and diagnosis.degraded_reports,
        })
    counters = result.metrics.to_dict()["counters"]
    fp = {
        "victims": victims,
        "collected": result.collected_switches,
        "accounting": {
            "processing_bytes": result.processing_bytes,
            "bandwidth_bytes": result.bandwidth_bytes,
            "polling_packets": result.polling_packets,
            "collections": result.collections,
            "data_pkt_hops": result.data_pkt_hops,
            "causal_switches": sorted(result.causal_switches),
            "fault_counters": result.fault_counters,
            "fault_incidents": result.fault_incidents,
        },
        "counters": {
            name: value for name, value in counters.items()
            if name.startswith(("collection.", "agent.", "polling."))
        },
        "events_run": result.events_run,
        "sim": {
            name: value for name, value in counters.items()
            if name.startswith("sim.")
        },
        "observation": observe(result),
        "summary": dataclasses.replace(
            summarize_run(None, result.scenario, result), perf=None
        ),
    }
    monitor = result.monitor
    if monitor is not None:
        fp["monitor"] = {
            "alerts": [a.to_dict() for a in monitor.alerts],
            "incidents": [i.to_dict() for i in monitor.timeline.incidents],
            "prometheus": prometheus_text(monitor),
            "jsonl": list(jsonl_snapshot(monitor)),
            "timeline": monitor.timeline.describe(),
        }
    obs = result.config.obs
    if obs is not None and obs.jsonl_path is not None:
        with open(obs.jsonl_path, "rb") as trace:
            fp["jsonl"] = trace.read()
    return fp


def run(spec, mode="plain"):
    """Fingerprint ``spec`` run once, serially, under ``CONFIGS[mode]``."""
    config = dict(CONFIGS[mode])
    with tempfile.TemporaryDirectory() as scratch:
        if "obs" in config:
            config["obs"] = ObsConfig(
                jsonl_path=os.path.join(scratch, "trace.jsonl"),
                **config["obs"],
            )
        return fingerprint(run_scenario(spec.build(), RunConfig(**config)))


@functools.lru_cache(maxsize=None)
def serial(spec, mode="plain"):
    """The serial baseline: :func:`run`, once per session.  Every caller
    shares the cached dict, so it is read, never mutated."""
    return run(spec, mode)


def check(got, want, excluded=()):
    """``got`` equals ``want`` on every fingerprint field not ``excluded``."""
    for field in sorted((got.keys() | want.keys()) - set(excluded)):
        assert got.get(field) == want.get(field), field


def spec(name, seed=1):
    return ScenarioSpec(name, seed=seed)


def run_sharded(one, monkeypatch, **config):
    """``one`` at ``shards=2``.  Each epoch, every worker checks that the
    collector is as the parent left it; one that left cycle sweeps off
    is killed, which would show as a serial fallback."""
    monkeypatch.setattr(
        shardrun, "_TEST_WORKER_ABORT",
        lambda shard_id, epoch_no: None if gc.isenabled() else "sigkill",
    )
    result = run_scenario_sharded(one, RunConfig(shards=2, **config))
    assert "fallback_ran" not in result.perf.supervision
    return result


# -- repeat: the same spec and config twice in one process --------------------


@pytest.mark.parametrize("name, mode", [
    ("incast-backpressure", "plain"),
    ("pfc-storm", "traced"),
    ("in-loop-deadlock", "traced"),
    ("normal-contention", "sim-events"),
    ("pfc-storm", "chaos+traced"),
    ("incast-backpressure", "lossy+retry"),
    ("pfc-storm", "monitor"),
])
def test_repeat(name, mode):
    want = serial(spec(name), mode)
    check(run(spec(name), mode), want)
    if "obs" in CONFIGS[mode]:
        assert want["jsonl"]  # the trace really recorded the run
    if mode == "sim-events":
        assert b"pkt_enqueue" in want["jsonl"]


# -- pool: run_scenarios_parallel, in process and across a fork pool ---------


@pytest.mark.parametrize("specs, mode", [
    # The fleet fabric first: it finishes last, so finish order is not
    # spec order.
    pytest.param(
        [spec("fleet-incast-k8")]
        + [spec("incast-backpressure", seed) for seed in (3, 1, 2)],
        "plain",
        id="slow-first",
    ),
    # Workers rebuild their monitors from the frozen config.
    pytest.param(
        [spec("pfc-storm"), spec("normal-contention")], "monitor",
        id="monitor",
    ),
])
@pytest.mark.parametrize("jobs", [1, 2])
def test_pool(jobs, specs, mode):
    config = RunConfig(**CONFIGS[mode])
    summaries = run_scenarios_parallel(specs, config, jobs=jobs)
    assert [s.spec for s in summaries] == specs  # spec order, not finish order
    for summary, one in zip(summaries, specs):
        summary = dataclasses.replace(summary, spec=None, perf=None)
        assert summary == serial(one, mode)["summary"]


# -- shards: one fabric across two worker processes --------------------------


@pytest.mark.parametrize("one, config", [
    *[(spec(name), {}) for name in ANOMALY_BUILDERS],
    (STORM_GENOME, {}),
    # Neither an untraced ObsConfig nor a disabled plan is a serial_reason.
    (spec("incast-backpressure"), {"obs": ObsConfig()}),
    (spec("incast-backpressure"), {"faults": FaultPlan(seed=99)}),
], ids=ANOMALY_BUILDERS + ["storm-genome", "untraced-obs", "zero-fault-plan"])
def test_shards(one, config, monkeypatch):
    sharded = run_sharded(one, monkeypatch, **config)
    assert sharded.perf.shards == 2 and sharded.obs is None
    assert "serial_reason" not in sharded.perf.supervision
    check(fingerprint(sharded), serial(one), EXCLUDED["shards"])


# -- monitor: the fabric monitor is a pure observer --------------------------


@pytest.mark.parametrize("name", sorted(SCENARIO_BUILDERS))
def test_monitor(name):
    got = serial(spec(name), "monitor")
    check(got, serial(spec(name)), EXCLUDED["monitor"])


def test_monitor_leaves_the_trace_alone():
    """The sampler reads sim state but never reorders or injects pipeline
    events, so even the trace bytes match."""
    got = serial(spec("pfc-storm"), "monitor+traced")
    check(got, serial(spec("pfc-storm"), "traced"), EXCLUDED["monitor"])


# -- tracer: pipeline tracing on or off ---------------------------------------


@pytest.mark.parametrize("name", ["pfc-storm", "incast-backpressure"])
def test_tracer(name):
    got = serial(spec(name), "traced")
    check(got, serial(spec(name)), EXCLUDED["tracer"])


def test_traced_shard_request_is_the_serial_run(monkeypatch):
    """Pipeline tracing is a ``serial_reason``: a traced ``shards=2``
    request streams the serial run's JSONL, byte for byte."""
    one = spec("incast-backpressure")
    with tempfile.TemporaryDirectory() as scratch:
        obs = ObsConfig(trace=True, jsonl_path=os.path.join(scratch, "t"))
        sharded = run_sharded(one, monkeypatch, obs=obs)
        got = fingerprint(sharded)
    assert sharded.perf.supervision == {"serial_reason": "pipeline tracing"}
    assert got["jsonl"].count(b"\n") == len(sharded.obs.tracer.records())
    check(got, serial(one, "traced"))


# -- zero-fault plan: an all-zero FaultPlan is no plan at all ----------------


@pytest.mark.parametrize("name", ["incast-backpressure", "normal-contention"])
def test_zero_fault_plan(name):
    got = serial(spec(name), "zero-plan")
    assert got["accounting"]["fault_counters"] == {}
    assert got["accounting"]["fault_incidents"] == []
    check(got, serial(spec(name)))


def test_clean_run_has_full_confidence():
    (primary,) = serial(spec("incast-backpressure"))["victims"]
    assert primary["confidence"] == "full"
    assert primary["completeness"] == 1.0
    assert primary["missing"] == [] and primary["degraded"] == []
    assert "confidence" not in primary["describe"]


# -- chopped engine: a run cut by event budgets and stop callables -----------


@pytest.mark.parametrize("budget, stop_every", [
    (1, None), (7, None), (512, None),
    (None, 64), (512, 64), (512, 7), (7, 64),
])
@pytest.mark.parametrize("name", ["pfc-storm", "in-loop-deadlock"])
def test_chopped(name, budget, stop_every):
    """The storm has dense same-instant batches; the in-loop deadlock
    cancels dequeue wakes by the hundred.  A stop says yes to every
    third ask."""
    one = spec(name, seed=3)
    session = FabricSession(one.build(), RunConfig())
    answers = itertools.cycle([False, False, True])
    stop = (lambda: next(answers)) if stop_every else None
    while not session.complete:
        session.advance(session.duration_ns, budget, stop, stop_every or 1)
    want = serial(one)
    assert want["events_run"] > 10_000
    check(fingerprint(session.finish()), want)


# -- served episode: repro serve against the batch run -----------------------


def _serve(serving, name, episodes, slice_us, query=None):  # noqa: F811
    """Serve ``episodes`` of ``name`` from seed 7 and fingerprint the last.
    With a ``query`` victim, also query every 5 ms throughout, and return
    the service's counters and its answer to ``query`` at the end."""
    assert ServeConfig().run_config() == RunConfig(**CONFIGS["monitor"])

    async def main():
        async with serving(
            scenario=name, seed=7, episodes=episodes, slice_us=slice_us
        ) as (service, path):
            if query is None:
                while service.episodes_completed < episodes:
                    await asyncio.sleep(0.02)
                return fingerprint(service.last_result), None, None
            client = await ServeClient.connect(unix_path=path, tenant="t")
            # Queries land mid-slice, so slices really do end on budget
            # and request stops rather than only on their time targets.
            while not service._episode_finished:
                await client.query()
                await asyncio.sleep(0.005)
            await client.close()
            # Its own tenant: the hammering above may have drained
            # tenant "t"'s token bucket.
            client = await ServeClient.connect(unix_path=path, tenant="u")
            reply = await client.query(victim=query)
            await client.close()
            counters = service.registry.to_dict()["counters"]
            return fingerprint(service.last_result), counters, reply

    return asyncio.run(main())


@pytest.mark.parametrize("name, episodes, slice_us", [
    ("pfc-storm", 1, 333.0),
    ("incast-backpressure", 1, 333.0),
    ("pfc-storm", 2, 500.0),
])
def test_served_episode(name, episodes, slice_us, serving):  # noqa: F811
    """Episode ``k`` at seed ``s`` is the batch run at seed ``s + k``.  A
    333 us slice does not divide the duration, so slicing is exercised."""
    got, _, _ = _serve(serving, name, episodes, slice_us)
    check(got, serial(spec(name, 7 + episodes - 1), "monitor"))


@pytest.mark.parametrize("slice_us", [333.0, 500.0])
@pytest.mark.parametrize("poll_every", [1, 7, 64])  # 64: longer than a budget
@pytest.mark.parametrize("budget", [1, 7, 512])
def test_served_chunks(
    budget, poll_every, slice_us, serving, monkeypatch  # noqa: F811
):
    """Where a slice is cut (by ``slice_us``, the chunk budget or a
    waiting query, however often the sim looks for one) moves nothing,
    and neither do the queries answered mid-episode."""
    monkeypatch.setattr(service_module, "CHUNK_EVENTS", budget)
    monkeypatch.setattr(service_module, "POLL_EVENTS", poll_every)
    want = serial(spec("pfc-storm", 7), "monitor")
    (primary,) = want["victims"]
    got, counters, reply = _serve(
        serving, "pfc-storm", 1, slice_us, query=primary["victim"]
    )
    check(got, want)
    if budget > poll_every:
        assert counters["serve.chunks.preempted"] >= 1
    assert reply["status"] == "diagnosed"
    assert reply["diagnosis"] == primary["describe"]
    assert reply["confidence"] == primary["confidence"]
    assert reply["trigger_ns"] == primary["trigger_ns"]


# -- fuzz pool: a campaign is a pure function of its seed --------------------


def test_fuzz_pool():
    config = FuzzConfig(budget=9, seed=5, jobs=1, generation=2)
    alone = run_fuzz(config)
    pooled = run_fuzz(dataclasses.replace(config, jobs=2))
    assert alone.evaluated == pooled.evaluated == 9
    assert pooled.retained == alone.retained


# -- negative rows: the fingerprint does see a different input ---------------


@pytest.mark.parametrize("a, b, part", [
    ((spec("pfc-storm"), "traced"), (spec("pfc-storm", 2), "traced"),
     lambda fp: fp["jsonl"]),
    ((spec("incast-backpressure"), "lossy"),
     (spec("incast-backpressure"), "lossy-fault-seed-2"),
     lambda fp: fp["accounting"]["fault_incidents"]),
    # Seeds shift flow placement, so the sketched flow keys differ.
    ((spec("incast-backpressure"), "monitor"),
     (spec("incast-backpressure", 2), "monitor"),
     lambda fp: fp["monitor"]["prometheus"]),
], ids=["seed-moves-trace", "fault-seed-moves-incidents", "seed-moves-monitor"])
def test_different_input_different_output(a, b, part):
    assert part(serial(*a)) != part(serial(*b))


@pytest.mark.parametrize("seed", [1, 2])
def test_seed_still_diagnoses(seed):
    summary = serial(spec("incast-backpressure", seed))["summary"]
    assert summary.diagnosis_text is not None
    assert summary.causal_coverage == 1.0
