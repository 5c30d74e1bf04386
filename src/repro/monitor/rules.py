"""Sliding-window alert rules over monitor time series.

Rules are pure descriptions (frozen dataclasses) evaluated by a
:class:`RuleEngine` that keeps the per-(rule, subject) state: consecutive
samples over threshold, and a firing latch so one sustained episode
raises exactly one :class:`Alert` (the latch clears when the subject
drops back under threshold, re-arming the rule for a later episode).

Two evaluation shapes cover every fabric symptom the monitor watches:

- :class:`SustainedRule` — the sample value stays at/above ``threshold``
  for ``sustain`` consecutive samples (PFC storms, pause back-pressure,
  buffer saturation, RTT inflation);
- :class:`CollapseRule` — the mean over the most recent ``window``
  samples falls below ``fraction`` of the mean over the ``window``
  samples before those, and that earlier mean shows real activity
  (throughput collapse: a port that was moving bytes and stopped).

Categories are the correlation vocabulary the incident timeline matches
against diagnosed anomaly classes (see
:data:`repro.monitor.timeline.ANOMALY_ALERT_CATEGORIES`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from .series import RingSeries

__all__ = [
    "Alert",
    "AlertRule",
    "SustainedRule",
    "CollapseRule",
    "RuleEngine",
]

# The correlation vocabulary (alert categories).
PFC_STORM = "pfc_storm"
PAUSE_BACKPRESSURE = "pause_backpressure"
BUFFER_SATURATION = "buffer_saturation"
THROUGHPUT_COLLAPSE = "throughput_collapse"
RTT_INFLATION = "rtt_inflation"


@dataclass(frozen=True)
class Alert:
    """One rule firing for one subject at one sampled instant."""

    rule: str
    category: str
    subject: str
    time_ns: int
    value: float
    threshold: float

    def describe(self) -> str:
        return (
            f"[{self.time_ns / 1e6:9.3f} ms] {self.category:20s} "
            f"{self.subject:12s} {self.rule} "
            f"(value {self.value:g}, threshold {self.threshold:g})"
        )

    def to_dict(self) -> Dict[str, Any]:
        return {
            "rule": self.rule,
            "category": self.category,
            "subject": self.subject,
            "time_ns": self.time_ns,
            "value": self.value,
            "threshold": self.threshold,
        }


@dataclass(frozen=True)
class AlertRule:
    """Base rule: a name, a category, and the metric it watches."""

    name: str
    category: str
    metric: str

    def check(self, series: RingSeries) -> Optional[Tuple[float, float]]:
        """Return ``(value, threshold)`` when the condition holds *now*."""
        raise NotImplementedError


@dataclass(frozen=True)
class SustainedRule(AlertRule):
    """Latest ``sustain`` samples all at/above ``threshold``."""

    threshold: float = 1.0
    sustain: int = 3

    def check(self, series: RingSeries) -> Optional[Tuple[float, float]]:
        # Fast path: almost every sample of a healthy subject sits below
        # threshold, so the latest value alone usually decides.
        latest = series.latest()
        if latest < self.threshold:
            return None
        if len(series) < self.sustain:
            return None
        if series.window_min(self.sustain) < self.threshold:
            return None
        return latest, self.threshold


@dataclass(frozen=True)
class CollapseRule(AlertRule):
    """Recent mean under ``fraction`` of the prior window's active mean."""

    window: int = 6
    fraction: float = 0.2
    min_level: float = 1.0  # prior mean must show real activity

    def check(self, series: RingSeries) -> Optional[Tuple[float, float]]:
        w = self.window
        if len(series) < 2 * w:
            return None
        # Work on window sums (both windows are full once len >= 2w), so
        # neither the quiet-prior prune nor the compare pays a division.
        prior_sum = series.window_sum(w, offset=w)
        if prior_sum < self.min_level * w:
            return None
        recent_sum = series.window_sum(w)
        if recent_sum < self.fraction * prior_sum:
            return recent_sum / w, self.fraction * prior_sum / w
        return None


@dataclass
class RuleEngine:
    """Evaluates rules against series and latches per-subject episodes."""

    rules: List[AlertRule] = field(default_factory=list)
    alerts: List[Alert] = field(default_factory=list)

    def __post_init__(self) -> None:
        # metric -> [(rule, per-subject firing latch), ...].  One latch
        # dict per rule keyed by the subject string avoids building a
        # (rule, subject) tuple on every evaluation of every sample.
        self._by_metric: Dict[str, List[Tuple[AlertRule, Dict[str, bool]]]] = {}
        for rule in self.rules:
            self._by_metric.setdefault(rule.metric, []).append((rule, {}))

    def step(self, series: RingSeries, now_ns: int) -> None:
        """Evaluate every rule watching ``series.metric`` at this sample.

        A newly raised alert is appended to :attr:`alerts` (an episode
        already firing stays silent until it clears).  The common
        no-change case allocates nothing.
        """
        rules = self._by_metric.get(series.metric)
        if not rules:
            return
        subject = series.subject
        for rule, firing in rules:
            hit = rule.check(series)
            if hit is None:
                if firing.get(subject):
                    firing[subject] = False
                continue
            if firing.get(subject):
                continue  # episode already alerted
            firing[subject] = True
            alert = Alert(
                rule=rule.name,
                category=rule.category,
                subject=subject,
                time_ns=now_ns,
                value=hit[0],
                threshold=hit[1],
            )
            self.alerts.append(alert)

    def alerts_by_category(self) -> Dict[str, int]:
        tally: Dict[str, int] = {}
        for alert in self.alerts:
            tally[alert.category] = tally.get(alert.category, 0) + 1
        return dict(sorted(tally.items()))
