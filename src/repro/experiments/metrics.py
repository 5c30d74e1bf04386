"""Precision/recall scoring against scenario ground truth (§4.2).

The paper's definitions: a *true positive* identifies both the exact
anomaly case (e.g., a deadlock) and the corresponding root causes (e.g.,
the burst flows); *false positives* report an incorrect case or root
cause; *false negatives* are anomalies that were never reported at all.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

from ..core.report import Diagnosis, RootCauseKind
from ..workloads.scenario import GroundTruth

if TYPE_CHECKING:
    from .runner import RunSummary


# A contention diagnosis must recover at least this fraction of the
# ground-truth culprit flows (the paper's case studies call out the "main
# contributor flows" rather than every burst member)...
CULPRIT_RECALL_THRESHOLD = 0.3
# ... and at most this fraction of its reported culprits may be wrong.
CULPRIT_NOISE_THRESHOLD = 0.34


def diagnosis_correct(diagnosis: Diagnosis, truth: GroundTruth) -> bool:
    """Is this a true positive (anomaly case AND root cause both right)?"""
    primary = diagnosis.primary()
    if primary.anomaly is not truth.anomaly:
        return False
    if truth.injecting_host is not None:
        return (
            primary.root_cause is RootCauseKind.HOST_PFC_INJECTION
            and primary.injecting_source == truth.injecting_host
        )
    if truth.culprit_flows:
        reported = set(primary.culprit_keys())
        expected = set(truth.culprit_flows)
        if not reported:
            return False
        recovered = len(reported & expected) / len(expected)
        noise = len(reported - expected) / len(reported)
        if noise > CULPRIT_NOISE_THRESHOLD:
            return False
        if recovered >= CULPRIT_RECALL_THRESHOLD:
            return True
        # Congestion control can reshape a symmetric burst so that one flow
        # dominates the queue; naming only the dominant true culprits (zero
        # innocents blamed) still identifies the root cause.
        return noise == 0.0 and len(reported & expected) >= 1
    return True


@dataclass
class AccuracyCounter:
    """Tallies TP/FP/FN across run summaries the paper's way (a summary's
    ``correct`` is :func:`diagnosis_correct` of its primary diagnosis)."""

    tp: int = 0
    fp: int = 0
    fn: int = 0

    def add(self, summary: RunSummary) -> bool:
        """Record one run's outcome; returns whether it was a TP."""
        diagnosis = summary.diagnosis
        if diagnosis is None or not diagnosis.findings:
            self.fn += 1
            return False
        if summary.correct:
            self.tp += 1
            return True
        self.fp += 1
        return False

    @property
    def precision(self) -> float:
        reported = self.tp + self.fp
        return self.tp / reported if reported else 0.0

    @property
    def recall(self) -> float:
        # The paper counts an anomaly as "recalled" when it is reported at
        # all; unreported anomalies are the false negatives.
        total = self.tp + self.fp + self.fn
        return (self.tp + self.fp) / total if total else 0.0

    @property
    def total(self) -> int:
        return self.tp + self.fp + self.fn
