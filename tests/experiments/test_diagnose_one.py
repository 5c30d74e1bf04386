"""The per-victim diagnosis path shared by batch runs, queries and the
analyzer service: it takes a victim's ``FlowKey`` and finds the source host
from the topology."""

import pytest

from repro.experiments import RunConfig, run_scenario
from repro.experiments.runner import FabricSession
from repro.sim import FlowKey
from repro.workloads import SCENARIO_BUILDERS


@pytest.mark.parametrize("name", sorted(SCENARIO_BUILDERS))
def test_every_flow_source_host_is_found_from_its_address(name):
    scenario = SCENARIO_BUILDERS[name](seed=1)
    topology = scenario.network.topology
    flows = scenario.network.flows
    assert flows
    for flow in flows:
        assert topology.host_of_ip(flow.key.src_ip) == flow.src_host


@pytest.fixture(scope="module")
def finished_session():
    session = FabricSession(SCENARIO_BUILDERS["in-loop-deadlock"](seed=1), RunConfig())
    fresh = {
        v.key: session.diagnose_now(v.key) for v in session.scenario.victims
    }
    session.advance(session.duration_ns)
    session.finalize()
    return session, fresh


class TestDiagnoseNow:
    def test_no_answer_before_the_victim_complains(self, finished_session):
        _, fresh = finished_session
        assert fresh and set(fresh.values()) == {None}

    def test_a_flow_that_is_not_a_victim_gets_no_answer(self, finished_session):
        session, _ = finished_session
        assert session.diagnose_now(FlowKey("10.9.9.9", "10.9.9.8", 1, 4791)) is None
        victims = {v.key for v in session.scenario.victims}
        bystanders = [t.victim for t in session.agent.triggers if t.victim not in victims]
        for key in bystanders:
            assert session.diagnose_now(key) is None

    def test_a_finished_session_answers_like_the_batch_run(self, finished_session):
        session, _ = finished_session
        batch = run_scenario(SCENARIO_BUILDERS["in-loop-deadlock"](seed=1), RunConfig())
        answered = 0
        for outcome in batch.outcomes:
            if outcome.diagnosis is None:
                continue
            now = session.diagnose_now(outcome.victim)
            assert now.victim == outcome.victim
            assert now.trigger == outcome.trigger
            assert now.diagnosis.describe() == outcome.diagnosis.describe()
            assert now.diagnosis.confidence == outcome.diagnosis.confidence
            answered += 1
        assert answered == len(session.scenario.victims)
