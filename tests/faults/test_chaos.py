"""Chaos harness acceptance gates.

The two hard robustness contracts (ISSUE acceptance criteria):

- at <=10% control-path loss *with retries*, every anomaly class is still
  diagnosed correctly;
- at higher loss the pipeline never crashes and never emits a wrong
  verdict at full confidence.
"""

from repro.faults import (
    CHAOS_SCENARIOS,
    ChaosOutcome,
    FaultPlan,
    RetryPolicy,
    chaos_sweep,
    run_chaos_cell,
    summarize,
)


class TestAcceptanceWithRetries:
    def test_all_classes_correct_at_ten_percent_loss(self):
        outcomes = chaos_sweep(loss_rates=(0.10,), seed=1, retry=RetryPolicy())
        assert len(outcomes) == len(CHAOS_SCENARIOS)
        for o in outcomes:
            assert not o.crashed, f"{o.scenario} crashed:\n{o.error}"
            assert o.correct, (
                f"{o.scenario} wrong at 10% loss with retries "
                f"(diagnosed={o.diagnosed}, confidence={o.confidence})"
            )


class TestHighLossNeverLies:
    def test_no_crash_no_wrong_full_confidence(self):
        outcomes = chaos_sweep(loss_rates=(0.3,), seed=1, retry=None)
        tally = summarize(outcomes)
        assert tally["crashed"] == 0
        assert tally["wrong_full_confidence"] == 0

    def test_extra_faults_on_top_of_loss(self):
        outcomes = chaos_sweep(
            scenarios=("incast-backpressure", "normal-contention"),
            loss_rates=(0.2,),
            retry=RetryPolicy(),
            extra_plan_kwargs={
                "dma_failure_rate": 0.2,
                "report_truncate_rate": 0.1,
            },
        )
        for o in outcomes:
            assert not o.crashed
            assert not o.wrong_full_confidence


class TestHarnessMechanics:
    def test_cell_never_raises_even_on_bad_scenario(self):
        outcome = run_chaos_cell(
            "no-such-scenario", FaultPlan.lossy(0.1), RetryPolicy(), 0.1
        )
        assert outcome.crashed
        assert "no-such-scenario" in outcome.error

    def test_cell_records_incident_log(self):
        outcome = run_chaos_cell(
            "incast-backpressure", FaultPlan.lossy(0.2), RetryPolicy(), 0.2
        )
        assert not outcome.crashed
        assert outcome.incident_log
        assert sum(outcome.fault_counters.values()) > 0

    def test_wrong_full_confidence_property(self):
        wrong = ChaosOutcome(
            scenario="s", loss_rate=0.1, seed=1,
            diagnosed="pfc_storm", correct=False, confidence="full",
        )
        assert wrong.wrong_full_confidence
        degraded = ChaosOutcome(
            scenario="s", loss_rate=0.1, seed=1,
            diagnosed="pfc_storm", correct=False, confidence="degraded",
        )
        assert not degraded.wrong_full_confidence
        crashed = ChaosOutcome(
            scenario="s", loss_rate=0.1, seed=1, error="boom",
        )
        assert not crashed.wrong_full_confidence

    def test_summarize_tallies(self):
        outcomes = [
            ChaosOutcome("a", 0.1, 1, diagnosed="x", correct=True),
            ChaosOutcome("b", 0.1, 1, diagnosed="x", correct=False,
                         confidence="degraded"),
            ChaosOutcome("c", 0.1, 1),
            ChaosOutcome("d", 0.1, 1, error="boom"),
        ]
        tally = summarize(outcomes)
        assert tally == {
            "cells": 4,
            "correct": 1,
            "degraded": 1,
            "no_verdict": 1,
            "crashed": 1,
            "wrong_full_confidence": 0,
        }
