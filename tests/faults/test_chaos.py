"""Chaos harness acceptance gates.

The two hard robustness contracts (ISSUE acceptance criteria):

- at <=10% control-path loss *with retries*, every anomaly class is still
  diagnosed correctly;
- at higher loss the pipeline never crashes and never emits a wrong
  verdict at full confidence.
"""

from repro.core import AnomalyType, Diagnosis, Finding, RootCauseKind
from repro.experiments import RunConfig, RunSummary, ScenarioSpec
from repro.faults import (
    CHAOS_SCENARIOS,
    FaultPlan,
    chaos_sweep,
    run_chaos_cell,
    summarize,
)
from repro.sim import FlowKey


def cell(name, plan, retry=True):
    return (ScenarioSpec(name, plan.seed), RunConfig(faults=plan, retry=retry))


def summary(name, correct=False, completeness=None, error=None):
    """A hand-made cell result: a storm verdict unless ``completeness`` is
    None (no verdict) or ``error`` is set (crashed)."""
    diagnosis = None
    if completeness is not None:
        diagnosis = Diagnosis(
            victim=FlowKey("10.0.0.1", "10.0.0.2", 1000, 4791),
            findings=[Finding(AnomalyType.PFC_STORM,
                              RootCauseKind.HOST_PFC_INJECTION, None)],
            completeness=completeness,
        )
    return RunSummary(ScenarioSpec(name), diagnosis=diagnosis,
                      correct=correct, error=error)


class TestAcceptanceWithRetries:
    def test_all_classes_correct_at_ten_percent_loss(self):
        cells = chaos_sweep(loss_rates=(0.10,), seed=1, retry=True)
        assert len(cells) == len(CHAOS_SCENARIOS)
        for _, o in cells:
            assert not o.crashed, f"{o.spec.builder} crashed:\n{o.error}"
            assert o.correct, (
                f"{o.spec.builder} wrong at 10% loss with retries "
                f"(diagnosed={o.diagnosis_text}, confidence={o.confidence})"
            )


class TestHighLossNeverLies:
    def test_no_crash_no_wrong_full_confidence(self):
        cells = chaos_sweep(loss_rates=(0.3,), seed=1, retry=False)
        tally = summarize(o for _, o in cells)
        assert tally["crashed"] == 0
        assert tally["wrong_full_confidence"] == 0

    def test_extra_faults_on_top_of_loss(self):
        plan = FaultPlan(
            seed=1, polling_loss_rate=0.2, report_loss_rate=0.2,
            dma_failure_rate=0.2, report_truncate_rate=0.1,
        )
        for name in ("incast-backpressure", "normal-contention"):
            o = run_chaos_cell(cell(name, plan))
            assert not o.crashed
            assert not o.wrong_full_confidence


class TestHarnessMechanics:
    def test_cell_never_raises_even_on_bad_scenario(self):
        outcome = run_chaos_cell(cell("no-such-scenario", FaultPlan.lossy(0.1)))
        assert outcome.crashed
        assert "no-such-scenario" in outcome.error

    def test_cell_records_incident_log(self):
        outcome = run_chaos_cell(cell("incast-backpressure", FaultPlan.lossy(0.2)))
        assert not outcome.crashed
        assert outcome.fault_incidents
        assert sum(outcome.fault_counters.values()) > 0

    def test_wrong_full_confidence_property(self):
        assert summary("s", completeness=1.0).wrong_full_confidence
        assert not summary("s", completeness=0.5).wrong_full_confidence
        assert not summary("s", correct=True, completeness=1.0).wrong_full_confidence
        crashed = summary("s", error="boom")
        assert crashed.crashed
        assert not crashed.wrong_full_confidence

    def test_summarize_tallies(self):
        summaries = [
            summary("a", correct=True, completeness=1.0),
            summary("b", completeness=0.5),
            summary("c"),
            summary("d", error="boom"),
        ]
        tally = summarize(summaries)
        assert tally == {
            "cells": 4,
            "correct": 1,
            "degraded": 1,
            "no_verdict": 1,
            "crashed": 1,
            "wrong_full_confidence": 0,
        }
