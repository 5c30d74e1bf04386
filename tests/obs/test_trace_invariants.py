"""Trace-invariant tests: every anomaly scenario yields a structurally
valid trace whose diagnosis chains are complete — and under injected
faults, degraded chains are *flagged*, never silently truncated.
"""

import pytest

from repro.experiments import RunConfig, run_scenario
from repro.faults.plan import FaultPlan
from repro.obs import ObsConfig, build_tree, check_causal_chains, validate_records
from repro.workloads import SCENARIO_BUILDERS

SCENARIOS = (
    "pfc-storm",
    "in-loop-deadlock",
    "out-of-loop-deadlock",
    "incast-backpressure",
    "normal-contention",
)

# Event kinds that mark an injected fault inside a diagnosis subtree.
DEGRADED_EVENTS = {
    "polling_lost",
    "report_lost",
    "report_truncated",
    "report_delayed",
}


def run_traced(name, seed=1, faults=None, retry=False):
    scenario = SCENARIO_BUILDERS[name](seed=seed)
    config = RunConfig(
        obs=ObsConfig(trace=True), faults=faults, retry=retry
    )
    result = run_scenario(scenario, config)
    return result, result.obs.tracer.records()


def diagnosis_nodes(records):
    """victim -> its diagnosis SpanNode (asserts the tree assembles)."""
    roots, errors = build_tree(records)
    assert errors == []
    nodes = {}
    for root in roots:
        for diag in root.find("diagnosis"):
            nodes[diag.attrs.get("victim", diag.name)] = diag
    return nodes


def has_degradation_marker(diag):
    """A flagged fault anywhere in the diagnosis subtree."""
    for node in diag.walk():
        attrs = node.attrs
        if attrs.get("degraded") or attrs.get("unclosed") or attrs.get("unresolved"):
            return True
        if attrs.get("faults"):
            return True
    for event in diag.all_events():
        if event["kind"] in DEGRADED_EVENTS:
            return True
        if (event.get("attrs") or {}).get("faults"):
            return True
    return False


class TestFaultFreeChains:
    @pytest.mark.parametrize("name", SCENARIOS)
    def test_complete_causal_chains(self, name):
        result, records = run_traced(name)
        assert validate_records(records) == []
        chains = check_causal_chains(records)
        # Every chain is either complete or explicitly unresolved (a
        # background flow that complained but was never a declared victim).
        for victim, missing in chains.items():
            assert missing in ([], ["unresolved"]), f"{victim}: missing {missing}"
        assert [] in chains.values(), "no victim reached a complete chain"

    @pytest.mark.parametrize("name", SCENARIOS)
    def test_every_diagnosed_victim_has_a_chain(self, name):
        result, records = run_traced(name)
        chains = check_causal_chains(records)
        for outcome in result.outcomes:
            if outcome.diagnosis is not None:
                assert str(outcome.victim) in chains
                assert chains[str(outcome.victim)] == []

    def test_single_scenario_root(self):
        _, records = run_traced("pfc-storm")
        roots, errors = build_tree(records)
        assert errors == []
        assert len(roots) == 1
        assert roots[0].kind == "scenario"

    def test_verdict_count_matches_outcomes(self):
        result, records = run_traced("in-loop-deadlock")
        diagnosed = sum(1 for o in result.outcomes if o.diagnosis is not None)
        verdicts = [r for r in records if r["type"] == "event" and r["kind"] == "verdict"]
        assert len(verdicts) == diagnosed


class TestChaosChains:
    """10% loss on the polling, report and DMA channels: chains may be
    flagged degraded but never silently lose links without a marker."""

    PLAN = dict(
        polling_loss_rate=0.10, report_loss_rate=0.10, dma_failure_rate=0.10
    )

    @pytest.mark.parametrize("name", SCENARIOS)
    def test_degraded_flagged_never_missing(self, name):
        result, records = run_traced(
            name,
            faults=FaultPlan(seed=7, **self.PLAN),
            retry=True,
        )
        assert validate_records(records) == []
        chains = check_causal_chains(records)
        nodes = diagnosis_nodes(records)
        # Every victim the runner diagnosed still has a diagnosis span.
        for outcome in result.outcomes:
            if outcome.diagnosis is not None:
                assert str(outcome.victim) in nodes
        for victim, missing in chains.items():
            if missing in ([], ["unresolved"]):
                continue
            # The chain lost links to injected faults — then the subtree
            # must carry an explicit degradation marker explaining it.
            assert has_degradation_marker(nodes[victim]), (
                f"{victim} chain missing {missing} with no degradation flag"
            )

    def test_chaos_metrics_record_injected_faults(self):
        result, _ = run_traced(
            "pfc-storm", faults=FaultPlan(seed=7, **self.PLAN), retry=True
        )
        counters = result.metrics.to_dict()["counters"]
        injected = sum(
            v for k, v in counters.items() if k.startswith("faults.")
        )
        assert injected > 0
