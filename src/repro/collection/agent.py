"""Host-based anomaly detection agent (§3.4).

The paper's agent runs on a BlueField-3 DPU and watches per-flow RTT via
DOCA PCC; ours subscribes to the simulated hosts' RTT samples.  When a
flow's RTT exceeds ``threshold_multiplier`` times its unloaded base RTT the
agent injects a polling packet (victim 5-tuple, flag 01) from the source
host, which starts telemetry collection and diagnosis.

Host-side triggering deliberately avoids switch-side triggering: one
polling packet per victim covers the whole PFC causality without the
duplicated tracing that switch detection would start at every hop.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Dict, List, Optional

from ..faults.plan import (
    AGENT_RESTART_BLACKOUT_NS,
    JITTER_NS,
    MAX_RETRIES,
    REPORT_TIMEOUT_NS,
    backoff_ns,
)
from ..sim.flow import Flow
from ..sim.network import Network
from ..sim.packet import FlowKey, PollingFlag
from ..units import msec, usec

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from ..faults.injector import FaultInjector
    from ..monitor.monitor import FabricMonitor
    from ..obs.pipeline import PipelineObs

# ``report_probe(victim, since_ns) -> bool``: has the analyzer received any
# telemetry report since ``since_ns``?  Wired by the runner to the
# collector's delivery clock; the agent uses it to decide whether a polling
# packet (or its reports) died in flight and must be retransmitted.
ReportProbe = Callable[[FlowKey, int], bool]


@dataclass
class TriggerEvent:
    """One diagnosis trigger raised by the agent."""

    victim: FlowKey
    time_ns: int
    rtt_ns: int
    base_rtt_ns: int


# Suppress re-triggering for the same victim within this interval.
COOLDOWN_NS = msec(1)
# A flow with sent-but-unacked data and no ACK progress for this long is
# stalled (deadlocked flows stop producing RTT samples entirely).  At
# 100 Gbps, 200 us of ACK silence with data outstanding is many tens of
# base RTTs — unambiguously a frozen path.
STALL_TIMEOUT_NS = usec(200)
# How often the agent looks for stalled flows.
STALL_CHECK_INTERVAL_NS = usec(50)


class DetectionAgent:
    """Monitors every host's flows and fires polling packets on degradation."""

    def __init__(
        self,
        network: Network,
        threshold_multiplier: float = 3.0,
        retry: bool = False,
        injector: Optional["FaultInjector"] = None,
        obs: Optional["PipelineObs"] = None,
        monitor: Optional["FabricMonitor"] = None,
    ) -> None:
        """``threshold_multiplier`` is the detection threshold, normalized
        to the flow's base RTT (the paper sweeps 200%..500%, i.e.
        multipliers 2.0..5.0); ``retry`` turns on polling retransmission
        (the timers are :mod:`repro.faults.plan`'s constants)."""
        self.network = network
        self.threshold_multiplier = threshold_multiplier
        self.retry = retry
        self._injector = injector
        self._obs = obs
        self._monitor = monitor
        self.triggers: List[TriggerEvent] = []
        self._base_rtt: Dict[FlowKey, int] = {}
        # multiplier * base RTT, precomputed per flow: the RTT listener runs
        # for every ACK, so the comparison threshold is resolved once.
        self._threshold: Dict[FlowKey, float] = {}
        self._last_trigger: Dict[FlowKey, int] = {}
        self._listeners: List[Callable[[TriggerEvent], None]] = []
        self._retransmit_listeners: List[Callable[[FlowKey], None]] = []
        self._report_probe: Optional[ReportProbe] = None
        self._progress: Dict[FlowKey, tuple] = {}
        # Retry accounting (the ``agent.*`` metrics).
        self.retransmissions = 0
        self.retries_recovered = 0
        self.retries_exhausted = 0
        self._blackout_until = -1
        self._last_restart = -1
        for host in network.hosts.values():
            host.rtt_listeners.append(self._on_rtt)
        network.sim.schedule(STALL_CHECK_INTERVAL_NS, self._stall_check)

    def add_trigger_listener(self, fn: Callable[[TriggerEvent], None]) -> None:
        self._listeners.append(fn)

    def attach_monitor(self, monitor: Optional["FabricMonitor"]) -> None:
        """Feed per-flow RTT samples to a fabric monitor (None detaches)."""
        self._monitor = monitor

    def add_retransmit_listener(self, fn: Callable[[FlowKey], None]) -> None:
        """``fn(victim)`` runs just before a polling retransmission (the
        polling engine uses it to reopen its per-victim dedup windows, as a
        new trace generation in the real polling header would)."""
        self._retransmit_listeners.append(fn)

    def set_report_probe(self, fn: ReportProbe) -> None:
        """Wire the delivery feedback the retransmission timers consult."""
        self._report_probe = fn

    def base_rtt(self, flow: Flow) -> int:
        cached = self._base_rtt.get(flow.key)
        if cached is None:
            cached = self.network.estimate_base_rtt(
                flow.src_host, flow.key.dst_ip, flow.key
            )
            self._base_rtt[flow.key] = cached
        return cached

    def _on_rtt(self, flow: Flow, now: int, rtt_ns: int) -> None:
        if now < self._blackout_until:
            return  # agent process is restarting: samples are lost
        threshold = self._threshold.get(flow.key)
        if threshold is None:
            threshold = self.threshold_multiplier * self.base_rtt(flow)
            self._threshold[flow.key] = threshold
        if self._monitor is not None:
            self._monitor.on_rtt(
                flow.src_host, flow.key, now, rtt_ns, self._base_rtt[flow.key]
            )
        if rtt_ns <= threshold:
            return
        self._trigger(flow, now, rtt_ns, self._base_rtt[flow.key])

    def _trigger(
        self, flow: Flow, now: int, rtt_ns: int, base: int, kind: str = "rtt"
    ) -> None:
        last = self._last_trigger.get(flow.key)
        if last is not None and now - last < COOLDOWN_NS:
            return
        self._last_trigger[flow.key] = now
        event = TriggerEvent(victim=flow.key, time_ns=now, rtt_ns=rtt_ns, base_rtt_ns=base)
        self.triggers.append(event)
        if self._obs is not None:
            self._obs.on_trigger(flow.key, now, rtt_ns, base, kind=kind)
            self._obs.on_polling_injected(flow.key, now, attempt=0)
        self.network.hosts[flow.src_host].inject_polling(
            flow.key, PollingFlag.VICTIM_PATH
        )
        for fn in self._listeners:
            fn(event)
        if self.retry and self._report_probe is not None:
            delay = REPORT_TIMEOUT_NS + self._jitter(flow.key)
            self.network.sim.schedule(
                delay,
                self._retry_check,
                flow.key,
                flow.src_host,
                1,
                now,
            )

    # -- polling retransmission (end-to-end reliability) -------------------------

    def _jitter(self, victim: FlowKey) -> int:
        if not self.retry or self._injector is None:
            return 0
        return self._injector.retry_jitter(JITTER_NS, str(victim))

    def _retry_check(
        self, victim: FlowKey, src_host: str, attempt: int, trigger_time: int
    ) -> None:
        """No report yet?  Retransmit with exponential backoff, bounded."""
        now = self.network.sim.now
        if trigger_time < self._last_restart or now < self._blackout_until:
            return  # retry state died with the restarted agent process
        assert self._report_probe is not None and self.retry
        if self._report_probe(victim, trigger_time):
            if attempt > 1:
                self.retries_recovered += 1
                if self._injector is not None:
                    self._injector.count(
                        "polling_retry_recovered", str(victim), now
                    )
            return
        if attempt > MAX_RETRIES:
            self.retries_exhausted += 1
            if self._injector is not None:
                self._injector.count("polling_retries_exhausted", str(victim), now)
            return
        for fn in self._retransmit_listeners:
            fn(victim)
        self.retransmissions += 1
        if self._injector is not None:
            self._injector.count(
                "polling_retransmitted", str(victim), now, f"attempt={attempt}"
            )
        if self._obs is not None:
            self._obs.on_polling_injected(victim, now, attempt=attempt)
        self.network.hosts[src_host].inject_polling(victim, PollingFlag.VICTIM_PATH)
        delay = backoff_ns(attempt) + self._jitter(victim)
        self.network.sim.schedule(
            delay,
            self._retry_check,
            victim,
            src_host,
            attempt + 1,
            trigger_time,
        )

    def _restart(self, now: int) -> None:
        """Simulated agent-process restart: all soft state is lost and the
        agent is blind until the blackout lapses (missed triggers included)."""
        self._last_restart = now
        self._blackout_until = now + AGENT_RESTART_BLACKOUT_NS
        self._base_rtt.clear()
        self._threshold.clear()
        self._last_trigger.clear()
        self._progress.clear()

    def _stall_check(self) -> None:
        """Detect fully blocked flows (deadlocks produce no ACKs at all)."""
        now = self.network.sim.now
        if self._injector is not None and self._injector.agent_restart_due(now):
            self._restart(now)
        if now < self._blackout_until:
            self.network.sim.schedule(STALL_CHECK_INTERVAL_NS, self._stall_check)
            return
        for flow in self.network.flows:
            if flow.completed or flow.start_time > now or flow.bytes_sent == 0:
                continue
            if flow.bytes_sent <= flow.bytes_acked:
                continue  # nothing outstanding
            acked, since = self._progress.get(flow.key, (-1, now))
            if flow.bytes_acked != acked:
                self._progress[flow.key] = (flow.bytes_acked, now)
                continue
            if now - since >= STALL_TIMEOUT_NS:
                # Report the stall duration as the observed "RTT".
                self._trigger(flow, now, now - since, self.base_rtt(flow), kind="stall")
        self.network.sim.schedule(STALL_CHECK_INTERVAL_NS, self._stall_check)
