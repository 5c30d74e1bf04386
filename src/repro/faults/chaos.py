"""Chaos harness: sweep fault intensity across the anomaly scenarios.

A chaos cell is the runner's unit of work — a ``(ScenarioSpec,
RunConfig)`` cell whose config carries a seeded
:class:`~repro.faults.plan.FaultPlan` — and its result is the runner's
:class:`~repro.experiments.runner.RunSummary`.  The harness adds one
thing, the wrapper that makes a cell never raise.  The hard robustness
contract it checks (and the chaos test suite asserts):

- the pipeline never raises — a cell that crashes is a summary with its
  traceback in ``error`` (``crashed``), which the tests treat as failure;
- a *wrong* verdict is only ever emitted with degraded confidence: the
  completeness/confidence qualification must flag every diagnosis whose
  telemetry was incomplete or fault-marked (``wrong_full_confidence``
  never holds).
"""

from __future__ import annotations

import traceback
from typing import Dict, Iterable, List, Sequence, Tuple

from ..experiments.runner import RunConfig, RunSummary, ScenarioSpec, _run_spec_worker
from .plan import FaultPlan

# The five anomaly classes of Table 2 the chaos acceptance gate covers.
CHAOS_SCENARIOS = (
    "incast-backpressure",
    "pfc-storm",
    "in-loop-deadlock",
    "out-of-loop-deadlock",
    "normal-contention",
)


def run_chaos_cell(cell: Tuple[ScenarioSpec, RunConfig]) -> RunSummary:
    """Run one cell through the runner's worker; never raises."""
    try:
        return _run_spec_worker(cell)
    except Exception:  # noqa: BLE001 - the whole point is "never crashes"
        return RunSummary(cell[0], error=traceback.format_exc())


def chaos_sweep(
    scenarios: Sequence[str] = CHAOS_SCENARIOS,
    loss_rates: Iterable[float] = (0.0, 0.05, 0.10, 0.25),
    seed: int = 1,
    retry: bool = True,
) -> List[Tuple[float, RunSummary]]:
    """Every (loss rate, scenario) cell under :meth:`FaultPlan.lossy`, loss
    rates outermost; ``seed`` seeds both the scenarios and the faults, and
    ``retry`` turns the pipeline's retransmission and DMA retries on."""
    return [
        (
            loss_rate,
            run_chaos_cell((
                ScenarioSpec(name, seed),
                RunConfig(faults=FaultPlan.lossy(loss_rate, seed), retry=retry),
            )),
        )
        for loss_rate in loss_rates
        for name in scenarios
    ]


def summarize(summaries: Iterable[RunSummary]) -> Dict[str, int]:
    """Sweep-level tallies for the CLI footer and the smoke tests."""
    summaries = list(summaries)
    return {
        "cells": len(summaries),
        "correct": sum(1 for s in summaries if s.correct),
        "degraded": sum(1 for s in summaries if s.confidence != "full"),
        "no_verdict": sum(
            1 for s in summaries if s.diagnosis is None and not s.crashed
        ),
        "crashed": sum(1 for s in summaries if s.crashed),
        "wrong_full_confidence": sum(
            1 for s in summaries if s.wrong_full_confidence
        ),
    }
