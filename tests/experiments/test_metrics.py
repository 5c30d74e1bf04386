"""Scoring tests: the paper's TP/FP/FN accounting."""

import pytest

from repro.core import AnomalyType, Diagnosis, Finding, RootCauseKind
from repro.experiments import (
    AccuracyCounter,
    RunSummary,
    ScenarioSpec,
    diagnosis_correct,
)
from repro.sim import FlowKey
from repro.topology import PortRef
from repro.workloads import GroundTruth


def key(i):
    return FlowKey("10.0.0.1", "10.0.0.2", 1000 + i, 4791)


def diagnosis(anomaly, culprits=(), injector=None):
    finding = Finding(
        anomaly=anomaly,
        root_cause=(
            RootCauseKind.HOST_PFC_INJECTION
            if injector
            else RootCauseKind.FLOW_CONTENTION
        ),
        initial_port=PortRef("SW", 1),
        culprit_flows=[(k, 10.0) for k in culprits],
        injecting_source=injector,
    )
    return Diagnosis(victim=key(0), findings=[finding])


def summary(d, truth):
    """A run's summary as the runner scores it."""
    return RunSummary(
        ScenarioSpec("s"),
        diagnosis=d,
        correct=d is not None and diagnosis_correct(d, truth),
    )


class TestDiagnosisCorrect:
    def test_type_mismatch_fails(self):
        truth = GroundTruth(anomaly=AnomalyType.PFC_STORM, injecting_host="H")
        d = diagnosis(AnomalyType.MICRO_BURST_INCAST, culprits=[key(1)])
        assert not diagnosis_correct(d, truth)

    def test_injector_must_match(self):
        truth = GroundTruth(anomaly=AnomalyType.PFC_STORM, injecting_host="H1")
        assert diagnosis_correct(diagnosis(AnomalyType.PFC_STORM, injector="H1"), truth)
        assert not diagnosis_correct(diagnosis(AnomalyType.PFC_STORM, injector="H2"), truth)

    def test_culprit_recall_threshold(self):
        truth = GroundTruth(
            anomaly=AnomalyType.MICRO_BURST_INCAST,
            culprit_flows=[key(i) for i in range(1, 5)],
        )
        good = diagnosis(AnomalyType.MICRO_BURST_INCAST, culprits=[key(1), key(2)])
        assert diagnosis_correct(good, truth)

    def test_noise_threshold(self):
        truth = GroundTruth(
            anomaly=AnomalyType.MICRO_BURST_INCAST, culprit_flows=[key(1)]
        )
        noisy = diagnosis(
            AnomalyType.MICRO_BURST_INCAST,
            culprits=[key(1), key(8), key(9)],  # 2/3 innocents blamed
        )
        assert not diagnosis_correct(noisy, truth)

    def test_dominant_single_culprit_accepted_when_clean(self):
        truth = GroundTruth(
            anomaly=AnomalyType.NORMAL_CONTENTION,
            culprit_flows=[key(i) for i in range(1, 7)],
        )
        d = diagnosis(AnomalyType.NORMAL_CONTENTION, culprits=[key(3)])
        assert diagnosis_correct(d, truth)

    def test_single_wrong_culprit_rejected(self):
        truth = GroundTruth(
            anomaly=AnomalyType.NORMAL_CONTENTION, culprit_flows=[key(1)]
        )
        d = diagnosis(AnomalyType.NORMAL_CONTENTION, culprits=[key(9)])
        assert not diagnosis_correct(d, truth)

    def test_empty_culprits_rejected_when_truth_has_some(self):
        truth = GroundTruth(
            anomaly=AnomalyType.MICRO_BURST_INCAST, culprit_flows=[key(1)]
        )
        assert not diagnosis_correct(diagnosis(AnomalyType.MICRO_BURST_INCAST), truth)

    def test_type_only_truth(self):
        truth = GroundTruth(anomaly=AnomalyType.IN_LOOP_DEADLOCK)
        assert diagnosis_correct(diagnosis(AnomalyType.IN_LOOP_DEADLOCK), truth)

    def test_recall_threshold_decides(self, monkeypatch):
        truth = GroundTruth(
            anomaly=AnomalyType.MICRO_BURST_INCAST,
            culprit_flows=[key(i) for i in range(1, 11)],
        )
        # One innocent in the report disables the clean-subset leniency, so
        # the strict recall threshold decides — and fails.
        d = diagnosis(
            AnomalyType.MICRO_BURST_INCAST, culprits=[key(1), key(2), key(3), key(4),
                                                      key(5), key(6), key(7), key(99)]
        )
        monkeypatch.setattr("repro.experiments.metrics.CULPRIT_RECALL_THRESHOLD", 0.9)
        assert not diagnosis_correct(d, truth)
        monkeypatch.setattr("repro.experiments.metrics.CULPRIT_RECALL_THRESHOLD", 0.5)
        assert diagnosis_correct(d, truth)


class TestAccuracyCounter:
    def test_tally(self):
        truth = GroundTruth(anomaly=AnomalyType.PFC_STORM, injecting_host="H")
        acc = AccuracyCounter()
        acc.add(summary(diagnosis(AnomalyType.PFC_STORM, injector="H"), truth))  # TP
        acc.add(summary(diagnosis(AnomalyType.MICRO_BURST_INCAST, culprits=[key(1)]), truth))  # FP
        acc.add(summary(None, truth))  # FN
        assert (acc.tp, acc.fp, acc.fn) == (1, 1, 1)
        assert acc.precision == pytest.approx(0.5)
        # Paper semantics: "recalled" = reported at all.
        assert acc.recall == pytest.approx(2 / 3)

    def test_empty_diagnosis_counts_fn(self):
        truth = GroundTruth(anomaly=AnomalyType.PFC_STORM, injecting_host="H")
        acc = AccuracyCounter()
        acc.add(summary(Diagnosis(victim=key(0)), truth))
        assert acc.fn == 1

    def test_zero_division_guards(self):
        acc = AccuracyCounter()
        assert acc.precision == 0.0 and acc.recall == 0.0
