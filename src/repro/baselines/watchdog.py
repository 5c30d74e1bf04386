"""PFC watchdog: the industrial monitoring baseline of §2.3.

Production switches ship a "PFC watchdog" that polls each port's PFC
status periodically — but "the polling period is hundreds of milliseconds
or even seconds, which may miss massive transient PFC congestion", and the
port-level view "lacks fine-grained records of the performance impact on
each flow, and thus cannot help identify the root causes for the victim
flows" (§2.3).

This implementation polls every switch's live pause state on a timer and
records observations, so the motivation claim is measurable: compare the
watchdog's detection coverage against the ground-truth pause intervals a
:class:`~repro.obs.simtrace.SimTraceObserver` records.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Set, Tuple

from ..sim.network import Network
from ..sim.packet import DATA_PRIORITY
from ..topology.graph import PortRef
from ..units import msec


@dataclass(frozen=True)
class WatchdogObservation:
    """One port seen paused at a polling instant."""

    time_ns: int
    port: PortRef


@dataclass
class WatchdogConfig:
    # Industrial watchdogs poll at hundreds of ms; 200 ms is a generous
    # (fast) setting within the range §2.3 quotes.
    poll_interval_ns: int = msec(200)
    priority: int = DATA_PRIORITY


class PfcWatchdog:
    """Polls the live PFC pause state of every switch egress port."""

    def __init__(self, network: Network, config: Optional[WatchdogConfig] = None) -> None:
        self.network = network
        self.config = config if config is not None else WatchdogConfig()
        self.observations: List[WatchdogObservation] = []
        self.polls = 0
        self._running = False

    def start(self) -> None:
        if self._running:
            return
        self._running = True
        self.network.sim.schedule(self.config.poll_interval_ns, self._poll)

    def stop(self) -> None:
        self._running = False

    def _poll(self) -> None:
        if not self._running:
            return
        now = self.network.sim.now
        self.polls += 1
        for name, switch in self.network.switches.items():
            for port_no in switch.ports:
                if switch.egress_paused(port_no, self.config.priority):
                    self.observations.append(
                        WatchdogObservation(time_ns=now, port=PortRef(name, port_no))
                    )
        self.network.sim.schedule(self.config.poll_interval_ns, self._poll)

    # -- analysis -------------------------------------------------------------

    def paused_ports_seen(self) -> Set[PortRef]:
        return {obs.port for obs in self.observations}

    def detected_episode(
        self, intervals: List[Tuple[int, int]], port: PortRef
    ) -> bool:
        """Did any poll land inside one of the (start, end) pause spans?"""
        times = [o.time_ns for o in self.observations if o.port == port]
        return any(
            any(start <= t <= end for t in times) for start, end in intervals
        )

    def coverage_against(
        self, true_intervals: Dict[PortRef, List[Tuple[int, int]]]
    ) -> float:
        """Fraction of ground-truth pause episodes at least one poll hit.

        ``true_intervals`` is typically built from a
        :class:`~repro.obs.simtrace.SimTraceObserver` via ``pause_spans``.
        """
        total = 0
        hit = 0
        by_port: Dict[PortRef, List[int]] = {}
        for obs in self.observations:
            by_port.setdefault(obs.port, []).append(obs.time_ns)
        for port, intervals in true_intervals.items():
            times = by_port.get(port, [])
            for start, end in intervals:
                total += 1
                if any(start <= t <= end for t in times):
                    hit += 1
        return hit / total if total else 1.0
