"""Scenario and ground-truth containers used by the experiment harness."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

from ..core.report import AnomalyType
from ..sim.flow import Flow
from ..sim.network import Network
from ..sim.packet import FlowKey
from ..topology.graph import PortRef


@dataclass
class GroundTruth:
    """What a perfect diagnoser should report for a crafted scenario."""

    anomaly: AnomalyType
    culprit_flows: List[FlowKey] = field(default_factory=list)
    injecting_host: Optional[str] = None
    initial_port: Optional[PortRef] = None
    loop_ports: List[PortRef] = field(default_factory=list)


@dataclass
class Scenario:
    """A ready-to-run network with injected anomaly and ground truth.

    Builders create the network and schedule all flows/injections but never
    run the simulator — the harness first attaches whichever telemetry
    system is under test, then calls ``network.run``.
    """

    name: str
    network: Network
    truth: GroundTruth
    victims: List[Flow]
    duration_ns: int
    description: str = ""
