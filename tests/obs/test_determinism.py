"""Determinism differentials: identical (seed, scenario) runs emit
byte-identical trace JSONL, and turning the tracer on never changes what
the pipeline computes."""

import pytest

from repro.experiments import RunConfig, run_scenario
from repro.faults.plan import FaultPlan, RetryPolicy
from repro.obs import ObsConfig
from repro.workloads import SCENARIO_BUILDERS


def run_jsonl(name, path, seed=1, sim_events=False, faults=None, retry=None):
    scenario = SCENARIO_BUILDERS[name](seed=seed)
    config = RunConfig(
        obs=ObsConfig(
            trace=True, jsonl_path=str(path), sim_events=sim_events
        ),
        faults=faults,
        retry=retry,
    )
    run_scenario(scenario, config)
    return path.read_bytes()


class TestByteIdenticalTraces:
    @pytest.mark.parametrize("name", ["pfc-storm", "in-loop-deadlock"])
    def test_same_seed_same_bytes(self, tmp_path, name):
        first = run_jsonl(name, tmp_path / "a.jsonl")
        second = run_jsonl(name, tmp_path / "b.jsonl")
        assert first == second
        assert first  # non-empty: the trace actually recorded the run

    def test_sim_events_are_deterministic_too(self, tmp_path):
        first = run_jsonl(
            "normal-contention", tmp_path / "a.jsonl", sim_events=True
        )
        second = run_jsonl(
            "normal-contention", tmp_path / "b.jsonl", sim_events=True
        )
        assert first == second
        assert b"pkt_enqueue" in first

    def test_chaos_traces_are_deterministic(self, tmp_path):
        """Fault injection is seeded: chaos runs replay byte-identically."""
        plan = dict(
            faults=FaultPlan(
                seed=7,
                polling_loss_rate=0.10,
                report_loss_rate=0.10,
                dma_failure_rate=0.10,
            ),
            retry=RetryPolicy(),
        )
        first = run_jsonl("pfc-storm", tmp_path / "a.jsonl", **plan)
        second = run_jsonl("pfc-storm", tmp_path / "b.jsonl", **plan)
        assert first == second

    def test_different_seeds_differ(self, tmp_path):
        first = run_jsonl("pfc-storm", tmp_path / "a.jsonl", seed=1)
        second = run_jsonl("pfc-storm", tmp_path / "b.jsonl", seed=2)
        assert first != second


class TestTracerIsPureObserver:
    """Tracing on vs off: same diagnoses, same accounting, same sim."""

    @pytest.mark.parametrize("name", ["pfc-storm", "incast-backpressure"])
    def test_tracer_does_not_perturb_results(self, tmp_path, name):
        def run(obs):
            scenario = SCENARIO_BUILDERS[name](seed=1)
            return run_scenario(scenario, RunConfig(obs=obs))

        plain = run(None)
        traced = run(
            ObsConfig(trace=True, jsonl_path=str(tmp_path / "t.jsonl"))
        )

        def digest(result):
            return {
                "diagnoses": [
                    (str(o.victim),
                     o.diagnosis.describe() if o.diagnosis else None,
                     o.diagnosis.completeness if o.diagnosis else None,
                     o.diagnosis.confidence if o.diagnosis else None)
                    for o in result.outcomes
                ],
                "collected": result.collected_switches,
                "events_run": result.events_run,
                "polling_packets": result.polling_packets,
                "collections": result.collections,
                "processing_bytes": result.processing_bytes,
                "bandwidth_bytes": result.bandwidth_bytes,
                # PerfStats modulo wall-clock (wall_s/events_per_sec/stages)
                # and the process-global caches that warm across runs.
                "sim_counters": (
                    result.perf.events_run,
                    result.perf.peak_pending_events,
                    result.perf.events_purged,
                    result.perf.compactions,
                ),
            }

        assert digest(plain) == digest(traced)

    def test_metrics_present_even_without_tracer(self):
        scenario = SCENARIO_BUILDERS["normal-contention"](seed=1)
        result = run_scenario(scenario, RunConfig())
        assert result.obs is None
        counters = result.metrics.to_dict()["counters"]
        assert counters.get("collection.collections", 0) > 0
        # No trace: no trace-derived event counters.
        assert not any(k.startswith("events.") for k in counters)
