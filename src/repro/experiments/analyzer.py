"""The analyzer service: continuous trigger-to-diagnosis operation.

The runner in :mod:`repro.experiments.runner` scores crafted scenarios
offline.  This module is the *operational* layer a deployment would run:
it subscribes to detection-agent triggers, waits for the asynchronous
telemetry reads driven by the polling engine, shares one diagnosis among
concurrent complaints about the same anomaly (the paper's F1–F4 deadlock
victims), and keeps a queryable incident history.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Set

from ..collection.agent import DetectionAgent, TriggerEvent
from ..collection.collector import TelemetryCollector
from ..collection.polling import PollingEngine
from ..core.build import AnnotatedGraph, build_provenance
from ..core.diagnosis import Diagnoser
from ..core.report import Diagnosis
from ..sim.network import Network
from ..sim.packet import FlowKey
from ..telemetry.epoch import EpochScheme
from ..units import usec
from .runner import select_reports


@dataclass
class Incident:
    """One diagnosed anomaly occurrence, possibly with several victims."""

    first_trigger: TriggerEvent
    victims: List[FlowKey] = field(default_factory=list)
    diagnosis: Optional[Diagnosis] = None
    annotated: Optional[AnnotatedGraph] = None
    switches: Set[str] = field(default_factory=set)

    @property
    def time_ns(self) -> int:
        return self.first_trigger.time_ns

    def describe(self) -> str:
        head = (
            f"incident at t={self.time_ns / 1e6:.3f} ms, "
            f"{len(self.victims)} victim(s), "
            f"switches: {', '.join(sorted(self.switches)) or '-'}"
        )
        if self.diagnosis is None:
            return head + "\n  (no diagnosis)"
        return head + "\n" + self.diagnosis.describe()


@dataclass
class AnalyzerConfig:
    # Triggers whose causal traces overlap within this window are treated
    # as complaints about the same incident.
    incident_window_ns: int = usec(500)
    # Delay from trigger to diagnosis, covering polling propagation and the
    # collector's asynchronous register reads.
    diagnosis_delay_ns: int = usec(400)


class AnalyzerService:
    """Binds agent + engine + collector into a continuous diagnosis loop."""

    def __init__(
        self,
        network: Network,
        agent: DetectionAgent,
        engine: PollingEngine,
        collector: TelemetryCollector,
        scheme: EpochScheme,
        config: Optional[AnalyzerConfig] = None,
        diagnoser: Optional[Diagnoser] = None,
    ) -> None:
        self.network = network
        self.agent = agent
        self.engine = engine
        self.collector = collector
        self.scheme = scheme
        self.config = config if config is not None else AnalyzerConfig()
        self.diagnoser = diagnoser if diagnoser is not None else Diagnoser()
        self.incidents: List[Incident] = []
        self._open: List[Incident] = []
        agent.add_trigger_listener(self._on_trigger)

    # -- trigger handling -------------------------------------------------------

    def _on_trigger(self, event: TriggerEvent) -> None:
        incident = self._match_incident(event)
        if incident is not None:
            incident.victims.append(event.victim)
            return
        incident = Incident(first_trigger=event, victims=[event.victim])
        self._open.append(incident)
        self.incidents.append(incident)
        self.network.sim.schedule(
            self.config.diagnosis_delay_ns, lambda: self._diagnose(incident)
        )

    def _match_incident(self, event: TriggerEvent) -> Optional[Incident]:
        """An open incident whose causal trace overlaps this victim's."""
        now = self.network.sim.now
        trace = self.engine.switches_traced_for(event.victim)
        for incident in reversed(self.incidents):
            if now - incident.time_ns > self.config.incident_window_ns:
                break
            if not trace or trace & incident.switches:
                # No trace yet (polling in flight) within the window counts
                # as the same burst of complaints; overlapping traces always do.
                return incident
        return None

    # -- diagnosis -----------------------------------------------------------------

    def _diagnose(self, incident: Incident) -> None:
        """Diagnose each complaining victim; report the most severe view.

        Victims of the same incident see it from different vantage points —
        a flow local to the congested switch sees plain contention, while a
        flow paused hops away sees the full PFC causality.  The incident's
        diagnosis is the most severe (deepest) of its victims' diagnoses.
        """
        self.collector.flush_pending(self.network.sim.now)
        raw = select_reports(self.collector.reports, incident.time_ns)
        best: Optional[Diagnosis] = None
        best_annotated: Optional[AnnotatedGraph] = None
        for victim in dict.fromkeys(incident.victims):
            trace = self.engine.switches_traced_for(victim)
            incident.switches |= trace
            reports = {n: r for n, r in raw.items() if n in trace}
            if not reports:
                continue
            annotated = build_provenance(
                reports,
                self.network.topology,
                window_ns=self.scheme.window_ns,
                victim=victim,
                epoch_size_ns=self.scheme.epoch_size_ns,
            )
            src_host = self.network.topology.host_of_ip(victim.src_ip)
            victim_path = self.network.routing.flow_path(
                src_host, victim.dst_ip, victim
            )[1:]
            diagnosis = self.diagnoser.diagnose(
                annotated, victim, victim_path_ports=victim_path
            )
            if not diagnosis.findings:
                continue
            if best is None or diagnosis.primary().severity > best.primary().severity:
                best, best_annotated = diagnosis, annotated
        incident.diagnosis = best
        incident.annotated = best_annotated
        if incident in self._open:
            self._open.remove(incident)

    # -- queries ----------------------------------------------------------------------

    def diagnosed_incidents(self) -> List[Incident]:
        return [i for i in self.incidents if i.diagnosis is not None]

    def incidents_for(self, victim: FlowKey) -> List[Incident]:
        return [i for i in self.incidents if victim in i.victims]

    def summary(self) -> str:
        lines = [f"{len(self.incidents)} incident(s), "
                 f"{len(self.diagnosed_incidents())} diagnosed"]
        for incident in self.incidents:
            lines.append(incident.describe())
        return "\n".join(lines)


def deploy_analyzer(network: Network, **kwargs) -> AnalyzerService:
    """One-call operational deployment: Hawkeye stack + analyzer service."""
    from ..collection import deploy_hawkeye

    deployment, agent, engine, collector = deploy_hawkeye(network)
    return AnalyzerService(
        network,
        agent,
        engine,
        collector,
        scheme=deployment.config.scheme,
        **kwargs,
    )
