"""Chaos harness: sweep fault intensity across the anomaly scenarios.

For each (scenario, loss-rate) cell the harness runs the full pipeline
under a seeded :class:`~repro.faults.plan.FaultPlan` and records whether
the diagnosis survived, degraded gracefully, or went missing.  The hard
robustness contract it checks (and the chaos test suite asserts):

- the pipeline never raises — a cell that crashes is recorded as an
  ``error`` outcome, which the tests treat as failure;
- a *wrong* verdict is only ever emitted with degraded confidence: the
  completeness/confidence qualification must flag every diagnosis whose
  telemetry was incomplete or fault-marked.
"""

from __future__ import annotations

import traceback
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence

from .plan import FaultPlan, RetryPolicy

# The five anomaly classes of Table 2 the chaos acceptance gate covers.
CHAOS_SCENARIOS = (
    "incast-backpressure",
    "pfc-storm",
    "in-loop-deadlock",
    "out-of-loop-deadlock",
    "normal-contention",
)


@dataclass
class ChaosOutcome:
    """One (scenario, loss-rate) cell of the chaos sweep."""

    scenario: str
    loss_rate: float
    seed: int
    diagnosed: Optional[str] = None  # primary anomaly value, None = no verdict
    correct: bool = False
    confidence: str = "full"
    completeness: float = 1.0
    fault_counters: Dict[str, int] = field(default_factory=dict)
    incident_log: List[str] = field(default_factory=list)
    error: Optional[str] = None

    @property
    def crashed(self) -> bool:
        return self.error is not None

    @property
    def wrong_full_confidence(self) -> bool:
        """The one outcome the pipeline must never produce: a wrong verdict
        asserted without any degradation qualifier."""
        return (
            not self.crashed
            and self.diagnosed is not None
            and not self.correct
            and self.confidence == "full"
        )


def run_chaos_cell(
    scenario_name: str,
    plan: FaultPlan,
    retry: Optional[RetryPolicy],
    loss_rate: float,
    obs=None,
) -> ChaosOutcome:
    """Run one scenario under one fault plan; never raises.

    ``obs`` (an :class:`~repro.obs.pipeline.ObsConfig`) turns tracing on
    for the cell — the chaos trace-invariant tests use it to assert that
    faults *flag* causal chains as degraded but never delete them.
    """
    # Deferred: repro.experiments.runner imports repro.faults.plan.
    from ..experiments.metrics import diagnosis_correct
    from ..experiments.runner import RunConfig, run_scenario
    from ..workloads import SCENARIO_BUILDERS

    outcome = ChaosOutcome(
        scenario=scenario_name, loss_rate=loss_rate, seed=plan.seed
    )
    try:
        scenario = SCENARIO_BUILDERS[scenario_name](seed=plan.seed)
        result = run_scenario(
            scenario, RunConfig(faults=plan, retry=retry, obs=obs)
        )
        primary = result.primary_outcome()
        if primary is not None and primary.diagnosis is not None:
            diagnosis = primary.diagnosis
            outcome.diagnosed = diagnosis.anomaly.value
            outcome.correct = diagnosis_correct(diagnosis, scenario.truth)
            outcome.confidence = diagnosis.confidence
            outcome.completeness = diagnosis.completeness
        outcome.fault_counters = dict(result.fault_counters)
        outcome.incident_log = list(result.fault_incidents)
    except Exception:  # noqa: BLE001 - the whole point is "never crashes"
        outcome.error = traceback.format_exc()
    return outcome


def chaos_sweep(
    scenarios: Sequence[str] = CHAOS_SCENARIOS,
    loss_rates: Iterable[float] = (0.0, 0.05, 0.10, 0.25),
    seed: int = 1,
    retry: Optional[RetryPolicy] = RetryPolicy(),
    extra_plan_kwargs: Optional[Dict] = None,
    obs=None,
) -> List[ChaosOutcome]:
    """Sweep loss rates across scenarios under a fixed seed.

    ``extra_plan_kwargs`` lets callers add non-loss faults (DMA failures,
    clock skew, agent restarts) on top of the canonical lossy plan;
    ``obs`` (an :class:`~repro.obs.pipeline.ObsConfig`) traces every cell.
    """
    outcomes: List[ChaosOutcome] = []
    for loss_rate in loss_rates:
        for name in scenarios:
            kwargs = dict(
                seed=seed,
                polling_loss_rate=loss_rate,
                report_loss_rate=loss_rate,
            )
            if extra_plan_kwargs:
                kwargs.update(extra_plan_kwargs)
            plan = FaultPlan(**kwargs)
            outcomes.append(run_chaos_cell(name, plan, retry, loss_rate, obs=obs))
    return outcomes


def summarize(outcomes: Sequence[ChaosOutcome]) -> Dict[str, int]:
    """Sweep-level tallies for the CLI footer and the smoke tests."""
    return {
        "cells": len(outcomes),
        "correct": sum(1 for o in outcomes if o.correct),
        "degraded": sum(1 for o in outcomes if o.confidence != "full"),
        "no_verdict": sum(
            1 for o in outcomes if o.diagnosed is None and not o.crashed
        ),
        "crashed": sum(1 for o in outcomes if o.crashed),
        "wrong_full_confidence": sum(
            1 for o in outcomes if o.wrong_full_confidence
        ),
    }
