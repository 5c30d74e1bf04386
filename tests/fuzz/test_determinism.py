"""Fuzz determinism differentials.

The campaign is specified to be a pure function of its seed: the same
(seed, genome) must yield byte-identical verdicts, coverage fingerprints
and retained corpora whether evaluation runs in-process, across a fork
pool (``jobs``), or on the sharded simulator (``shards``).
"""

import dataclasses
import json

from repro.experiments import RunConfig, run_scenario
from repro.experiments.runner import ScenarioSpec
from repro.experiments.shardrun import run_scenario_sharded
from repro.fuzz import (
    FuzzConfig,
    ScenarioGenome,
    observe,
    run_fuzz,
)


def _snapshot(report):
    """Everything a campaign decides, as comparable bytes."""
    return json.dumps([
        {
            "genome": json.loads(e.genome.to_json()),
            "fingerprint": e.fingerprint,
            "interest": list(e.interest),
            "verdict": e.observation.verdict,
            "diagnosis": e.diagnosis_text,
        }
        for e in report.retained
    ], sort_keys=True)


class TestJobsInvariance:
    def test_jobs_2_matches_serial(self):
        serial = run_fuzz(FuzzConfig(budget=9, seed=5, jobs=1, generation=2))
        pooled = run_fuzz(FuzzConfig(budget=9, seed=5, jobs=2, generation=2))
        assert serial.evaluated == pooled.evaluated == 9
        assert _snapshot(serial) == _snapshot(pooled)


class TestShardInvariance:
    def test_shards_2_matches_serial(self):
        genome = dataclasses.replace(
            ScenarioGenome(), storm_us=2500, storm_start_us=80
        ).normalized()
        spec = ScenarioSpec("genome", genome_json=genome.to_json())

        # Monitor off: a monitored run is serial by rule, and this case is
        # here so a genome-built (non-fat-tree) fabric crosses the engine.
        serial = run_scenario(spec.build(), RunConfig())
        sharded = run_scenario_sharded(spec, RunConfig(shards=2))
        assert sharded.perf.shards == 2

        obs_serial, obs_sharded = observe(serial), observe(sharded)
        assert obs_serial == obs_sharded
        assert obs_serial.fingerprint() == obs_sharded.fingerprint()
        assert (
            serial.diagnosis().describe() == sharded.diagnosis().describe()
        )
        assert serial.fault_incidents == sharded.fault_incidents


class TestSpecRebuild:
    def test_genome_spec_round_trips_through_build(self):
        genome = ScenarioGenome().normalized()
        spec = ScenarioSpec("genome", genome_json=genome.to_json())
        a, b = spec.build(), spec.build()
        assert a.name == b.name == genome.build().name
        assert [f.key for f in a.network.flows] == [
            f.key for f in b.network.flows
        ]

    def test_named_builder_specs_unaffected(self):
        spec = ScenarioSpec("pfc-storm", seed=2)
        assert spec.genome_json is None
        assert spec.name == "pfc-storm[seed=2]"
        assert spec.build().name == "pfc-storm-seed2"
