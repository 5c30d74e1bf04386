"""The service's binding contract: served episodes == batch runs, bytes.

``repro serve`` advances the fabric in small time slices, each a loop of
chunks that end on an event budget or on a waiting request, on its event
loop; ``repro run`` advances it in one shot.  Both ride
:class:`~repro.experiments.runner.FabricSession`, and the simulator
executes events in timestamp order regardless of how ``run(until_ns,
max_events, stop, stop_every)`` partitions the clock — so episode ``k``
at seed ``s`` must produce verdicts *byte-identical* to ``run_scenario``
at seed ``s + k``.
This test pins that equivalence end to end, through the live service.
"""

import asyncio
import functools

import pytest

from tests.serve.conftest import wait_episode_complete

from repro.experiments import run_scenario
from repro.serve import ServeClient, ServeConfig
from repro.serve import service as service_module
from repro.workloads import SCENARIO_BUILDERS

SCENARIOS = ["pfc-storm", "incast-backpressure"]
CHUNK_BUDGETS = [1, 7, 512]
POLL_INTERVALS = [1, 7, 64]  # 64 > 1 and 7: a budget shorter than the interval
AWKWARD_SLICES_US = [333.0, 500.0]


def _batch(scenario_name, seed):
    scenario = SCENARIO_BUILDERS[scenario_name](seed=seed)
    return run_scenario(scenario, ServeConfig().run_config())


def _verdict_fingerprint(result):
    """Everything a consumer of a diagnosis could observe, stringified."""
    outcomes = []
    for outcome in result.outcomes:
        outcomes.append({
            "victim": str(outcome.victim),
            "trigger_ns": outcome.trigger.time_ns
            if outcome.trigger is not None else None,
            "diagnosis": outcome.diagnosis.describe()
            if outcome.diagnosis is not None else None,
            "confidence": outcome.diagnosis.confidence
            if outcome.diagnosis is not None else None,
            "completeness": outcome.diagnosis.completeness
            if outcome.diagnosis is not None else None,
        })
    monitor = {}
    if result.monitor is not None:
        monitor = {
            "alerts": [a.to_dict() for a in result.monitor.alerts],
            "incidents": [
                i.to_dict() for i in result.monitor.timeline.incidents
            ],
        }
    return {"outcomes": outcomes, "monitor": monitor}


@functools.lru_cache(maxsize=None)
def _batch_storm_seed7():
    result = _batch("pfc-storm", seed=7)
    return _verdict_fingerprint(result), result.primary_outcome()


class TestChunkBudgetNeverChangesTheEpisode:
    """Where a slice is cut — by ``slice_us``, by the chunk budget, by a
    query arriving, however often the sim looks for one — moves no
    verdict, alert or diagnosis line."""

    @pytest.mark.parametrize("slice_us", AWKWARD_SLICES_US)
    @pytest.mark.parametrize("poll_every", POLL_INTERVALS)
    @pytest.mark.parametrize("budget", CHUNK_BUDGETS)
    def test_verdicts_alerts_and_text_match_batch(
        self, budget, poll_every, slice_us, serving, monkeypatch
    ):
        monkeypatch.setattr(service_module, "CHUNK_EVENTS", budget)
        monkeypatch.setattr(service_module, "POLL_EVENTS", poll_every)
        batch, primary = _batch_storm_seed7()

        async def main():
            async with serving(
                scenario="pfc-storm", seed=7, episodes=1, slice_us=slice_us
            ) as (service, path):
                client = await ServeClient.connect(unix_path=path, tenant="t")
                # Queries land mid-slice, so slices really do end on
                # budget and request stops rather than only on their time
                # targets.
                while not service._episode_finished:
                    await client.query()
                    await asyncio.sleep(0.005)
                await client.close()
                counters = service.registry.to_dict()["counters"]
                if budget > poll_every:
                    assert counters["serve.chunks.preempted"] >= 1
                # Its own tenant: the hammering above may have drained
                # tenant "t"'s token bucket.
                client = await ServeClient.connect(unix_path=path, tenant="u")
                reply = await client.query(victim=str(primary.victim))
                await client.close()
                return service.last_result, reply

        result, reply = asyncio.run(main())
        # The fingerprint carries every alert and incident, not just counts.
        assert _verdict_fingerprint(result) == batch
        assert reply["diagnosis"] == primary.diagnosis.describe()


class TestServedEpisodeEqualsBatchRun:
    @pytest.mark.parametrize("scenario", SCENARIOS)
    def test_episode0_verdicts_byte_identical(self, scenario, serving):
        batch = _verdict_fingerprint(_batch(scenario, seed=7))

        async def main():
            # A deliberately awkward slice size (not a divisor of the
            # duration) so the slicing itself is exercised.
            async with serving(
                scenario=scenario, seed=7, episodes=1, slice_us=333.0
            ) as (service, path):
                await wait_episode_complete(service)
                return _verdict_fingerprint(service.last_result)

        served = asyncio.run(main())
        assert served == batch

    def test_episode1_is_batch_at_next_seed(self, serving):
        batch = _verdict_fingerprint(_batch("pfc-storm", seed=8))

        async def main():
            async with serving(
                scenario="pfc-storm", seed=7, episodes=2, slice_us=500.0
            ) as (service, path):
                while service.episodes_completed < 2:
                    await asyncio.sleep(0.02)
                return _verdict_fingerprint(service.last_result)

        served = asyncio.run(main())
        assert served == batch

    def test_query_diagnosis_matches_batch_text(self, serving):
        batch = _batch("pfc-storm", seed=7)
        primary = batch.primary_outcome()
        assert primary is not None

        async def main():
            async with serving(
                scenario="pfc-storm", seed=7, episodes=1, slice_us=333.0
            ) as (service, path):
                await wait_episode_complete(service)
                client = await ServeClient.connect(unix_path=path, tenant="t")
                reply = await client.query(victim=str(primary.victim))
                await client.close()
                return reply

        reply = asyncio.run(main())
        assert reply["status"] == "diagnosed"
        assert reply["diagnosis"] == primary.diagnosis.describe()
        assert reply["confidence"] == primary.diagnosis.confidence
        assert reply["trigger_ns"] == primary.trigger.time_ns

    def test_mid_episode_query_does_not_perturb_final_verdict(self, serving):
        """Queries are pure reads: hammering the service mid-episode must
        leave the finished episode byte-identical to the batch run."""
        batch = _verdict_fingerprint(_batch("pfc-storm", seed=7))

        async def main():
            async with serving(
                scenario="pfc-storm", seed=7, episodes=1, slice_us=333.0
            ) as (service, path):
                client = await ServeClient.connect(unix_path=path, tenant="t")
                while not service._episode_finished:
                    await client.query()
                    await asyncio.sleep(0.01)
                await client.close()
                return _verdict_fingerprint(service.last_result)

        served = asyncio.run(main())
        assert served == batch
