"""Incident timeline: correlating fabric alerts with Hawkeye diagnoses.

The monitor raises alerts while the fabric degrades; Hawkeye's diagnosis
pipeline runs afterwards, once a victim complains.  The
:class:`IncidentTimeline` joins the two: every diagnosed victim becomes a
:class:`MonitorIncident` carrying the alerts that preceded its verdict,
the subset of those alerts whose subjects lie on the diagnosed PFC
provenance (ports on ``pfc_path``/``loop``/the initial congestion point),
the culprit flows, and — when pipeline tracing is on — the obs span id of
the diagnosis, so an operator can pivot from a fabric alert straight into
the pipeline trace that explains it.

:data:`ANOMALY_ALERT_CATEGORIES` is the expectation table: for each
anomaly class of the paper's Table 2, the alert categories a healthy
monitor should have raised *before* the diagnosis lands.  The pinned
tests in ``tests/monitor/test_alerts.py`` assert exactly this coverage.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, FrozenSet, List, Optional

from ..core.report import Diagnosis
from .rules import (
    BUFFER_SATURATION,
    PAUSE_BACKPRESSURE,
    PFC_STORM,
    RTT_INFLATION,
    THROUGHPUT_COLLAPSE,
    Alert,
)

__all__ = ["ANOMALY_ALERT_CATEGORIES", "MonitorIncident", "IncidentTimeline"]

# Anomaly class (AnomalyType.value) -> alert categories expected to have
# fired by the time that class is diagnosed.  Sets overlap on purpose:
# e.g. a PFC storm also produces pause back-pressure, so both firing is
# correct behaviour, not a false positive.
ANOMALY_ALERT_CATEGORIES: Dict[str, FrozenSet[str]] = {
    "pfc-storm": frozenset({PFC_STORM, PAUSE_BACKPRESSURE}),
    "pfc-backpressure-flow-contention": frozenset(
        {BUFFER_SATURATION, PAUSE_BACKPRESSURE}
    ),
    # Fuzzer-promoted class: host injection plus converging traffic at the
    # same port shows both the storm's pause flood and the incast's buffer
    # pressure.
    "contention-masked-pfc-storm": frozenset(
        {PFC_STORM, PAUSE_BACKPRESSURE, BUFFER_SATURATION}
    ),
    "in-loop-deadlock": frozenset({PAUSE_BACKPRESSURE, THROUGHPUT_COLLAPSE}),
    "out-of-loop-deadlock-contention": frozenset(
        {PAUSE_BACKPRESSURE, THROUGHPUT_COLLAPSE, BUFFER_SATURATION}
    ),
    "out-of-loop-deadlock-injection": frozenset(
        {PFC_STORM, PAUSE_BACKPRESSURE, THROUGHPUT_COLLAPSE}
    ),
    "normal-flow-contention": frozenset({RTT_INFLATION, BUFFER_SATURATION}),
}


@dataclass
class MonitorIncident:
    """One diagnosed victim with its preceding fabric-alert context."""

    victim: str
    anomaly: str
    confidence: str
    trigger_ns: int                    # when the victim first complained
    verdict_ns: int                    # when the diagnosis completed
    alerts: List[Alert] = field(default_factory=list)
    # Alert subjects that lie on the diagnosed provenance (ports of the
    # PFC path / deadlock loop / initial congestion point).
    linked_subjects: List[str] = field(default_factory=list)
    culprits: List[str] = field(default_factory=list)
    span_id: Optional[int] = None      # obs diagnosis span, when tracing

    @property
    def categories(self) -> FrozenSet[str]:
        return frozenset(a.category for a in self.alerts)

    @property
    def expected_categories(self) -> FrozenSet[str]:
        return ANOMALY_ALERT_CATEGORIES.get(self.anomaly, frozenset())

    @property
    def early_warning(self) -> bool:
        """Did an expected-category alert precede the verdict?"""
        expected = self.expected_categories
        return any(a.category in expected for a in self.alerts)

    def lead_time_ns(self) -> Optional[int]:
        """Verdict time minus the earliest expected-category alert."""
        expected = self.expected_categories
        times = [a.time_ns for a in self.alerts if a.category in expected]
        if not times:
            return None
        return self.verdict_ns - min(times)

    def describe(self) -> str:
        lead = self.lead_time_ns()
        lines = [
            f"incident: victim {self.victim} -> {self.anomaly} "
            f"(confidence {self.confidence})",
            f"  verdict at {self.verdict_ns / 1e6:.3f} ms; "
            f"{len(self.alerts)} preceding alert(s)"
            + (f", earliest lead {lead / 1e6:.3f} ms" if lead is not None else ""),
        ]
        for alert in self.alerts:
            marker = "*" if alert.subject in self.linked_subjects else " "
            lines.append(f"  {marker} {alert.describe()}")
        if self.culprits:
            lines.append("  culprit flows: " + ", ".join(self.culprits))
        if self.span_id is not None:
            lines.append(f"  obs span: {self.span_id}")
        return "\n".join(lines)

    def to_dict(self) -> Dict[str, Any]:
        return {
            "victim": self.victim,
            "anomaly": self.anomaly,
            "confidence": self.confidence,
            "trigger_ns": self.trigger_ns,
            "verdict_ns": self.verdict_ns,
            "alerts": [a.to_dict() for a in self.alerts],
            "linked_subjects": list(self.linked_subjects),
            "culprits": list(self.culprits),
            "span_id": self.span_id,
            "early_warning": self.early_warning,
            "lead_time_ns": self.lead_time_ns(),
        }


# How far before a trigger an alert still counts as having preceded the
# diagnosis it is linked to.
INCIDENT_LOOKBACK_NS = 10_000_000


class IncidentTimeline:
    """Chronological record of alerts and the diagnoses they preceded.

    ``alerts`` is the rule engine's own list, read, never copied.
    """

    def __init__(self, alerts: List[Alert]) -> None:
        self.alerts = alerts
        self.incidents: List[MonitorIncident] = []

    def record_diagnosis(
        self,
        diagnosis: Diagnosis,
        trigger_ns: int,
        verdict_ns: int,
        span_id: Optional[int] = None,
    ) -> MonitorIncident:
        """Fold one completed diagnosis into the timeline."""
        finding = diagnosis.primary()
        provenance = {str(p) for p in finding.pfc_path}
        provenance.update(str(p) for p in finding.loop)
        if finding.initial_port is not None:
            provenance.add(str(finding.initial_port))
        start = trigger_ns - INCIDENT_LOOKBACK_NS
        window = [a for a in self.alerts if start <= a.time_ns <= verdict_ns]
        linked = sorted({a.subject for a in window if a.subject in provenance})
        incident = MonitorIncident(
            victim=str(diagnosis.victim),
            anomaly=finding.anomaly.value,
            confidence=diagnosis.confidence,
            trigger_ns=trigger_ns,
            verdict_ns=verdict_ns,
            alerts=window,
            linked_subjects=linked,
            culprits=[str(k) for k in finding.culprit_keys()],
            span_id=span_id,
        )
        self.incidents.append(incident)
        return incident

    def describe(self) -> str:
        if not self.incidents and not self.alerts:
            return "incident timeline: quiet (no alerts, no incidents)"
        lines: List[str] = []
        if self.alerts:
            lines.append(f"alerts ({len(self.alerts)}):")
            lines.extend("  " + a.describe() for a in self.alerts)
        for incident in self.incidents:
            lines.append(incident.describe())
        return "\n".join(lines)

    def to_dict(self) -> Dict[str, Any]:
        return {
            "alerts": [a.to_dict() for a in self.alerts],
            "incidents": [i.to_dict() for i in self.incidents],
        }
