"""In-data-plane PFC causality analysis and polling-packet forwarding (§3.4).

A :class:`PollingEngine` installs a polling handler on every Hawkeye switch.
When a polling packet arrives the switch (at "line rate", i.e. inside the
simulated data plane):

1. mirrors the packet to its CPU, which starts asynchronous telemetry
   collection (see :mod:`repro.collection.collector`);
2. if the flag traces the *victim path* (01/11), unicasts the packet out
   of the victim flow's egress port, upgrading the flag to 11 when the
   victim was PFC-paused at that port — so the downstream switch also
   analyzes PFC causality;
3. if the flag traces *PFC causality* (10/11), consults the Figure-3
   causality structure: every egress port fed by the arrival ingress port
   (``meter > 0``) that is itself PFC-paused propagates the trace; ports
   whose paused packets are zero terminate the trace (the congestion is
   local flow contention), and host-facing paused ports terminate it too
   (host PFC injection).

Per-switch dedup on (victim, flag, ingress) bounds the trace and ends the
walk around deadlock loops after one full cycle.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, List, Optional, Tuple

from ..sim.network import Network
from ..sim.packet import Packet, PollingFlag
from ..sim.switch import Switch
from ..telemetry.hawkeye import HawkeyeDeployment
from ..units import msec

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from ..faults.injector import FaultInjector
    from ..obs.pipeline import PipelineObs


@dataclass
class PollingConfig:
    # Epochs of telemetry consulted by the line-rate checks.
    lookback_epochs: Optional[int] = None  # None = whole ring
    # Dedup interval for polling packets (per switch, per victim).
    dedup_interval_ns: int = msec(2)
    # Disable flag upgrade (victim-only baseline: never trace PFC causality).
    trace_pfc: bool = True
    # Ablation: ITSY-style 1-bit traffic presence instead of the Figure-3
    # port-pair meters — the causality multicast then forwards to *every*
    # paused egress port, collecting causally irrelevant switches.
    use_meters: bool = True


class PollingEngine:
    """Installs and implements the per-switch polling logic."""

    def __init__(
        self,
        network: Network,
        deployment: HawkeyeDeployment,
        config: Optional[PollingConfig] = None,
        injector: Optional["FaultInjector"] = None,
        obs: Optional["PipelineObs"] = None,
    ) -> None:
        self.network = network
        self.deployment = deployment
        self.config = config if config is not None else PollingConfig()
        self._injector = injector
        self._obs = obs
        # (switch, victim, flag_bit, ingress) -> last handled time
        self._seen: Dict[Tuple, int] = {}
        # victim -> switches its polling packets visited (causal trace set)
        self._victim_switches: Dict = {}
        self._mirror_listeners: List = []
        self.polling_packets_forwarded = 0
        self.polling_packets_suppressed = 0
        self.polling_packets_lost = 0
        for name in deployment.telemetry:
            network.switches[name].polling_handler = self._handle

    def add_mirror_listener(self, fn) -> None:
        """``fn(switch_name, pkt, now)`` is the CPU-mirror notification."""
        self._mirror_listeners.append(fn)

    def switches_traced_for(self, victim) -> set:
        """Switches a victim's polling packets visited — its causal trace."""
        return set(self._victim_switches.get(victim, ()))

    @property
    def victim_traces(self) -> Dict:
        """Victim -> the switch set :meth:`switches_traced_for` copies from."""
        return self._victim_switches

    def reset_victim(self, victim) -> None:
        """Reopen the per-victim dedup windows (retransmission support).

        The agent calls this before retransmitting a lost polling packet:
        the retransmission models a new trace generation in the polling
        header, so switches that forwarded the previous generation must
        forward this one too or the re-trace dies at the first hop.
        """
        for key in [k for k in self._seen if k[1] == victim]:
            del self._seen[key]

    # -- the data-plane logic ---------------------------------------------------

    def _handle(self, switch: Switch, pkt: Packet, ingress_port: int) -> List[Tuple[int, PollingFlag]]:
        assert pkt.flow is not None
        now = switch.sim.now
        victim = pkt.flow
        if self._injector is not None and not self._injector.polling_fate(
            now, switch.name
        ):
            # Lost or corrupted on the hop into this switch: no CPU mirror,
            # no forwarding — the trace is truncated here until the agent's
            # retransmission (if enabled) replays it.
            self.polling_packets_lost += 1
            if self._obs is not None:
                self._obs.on_polling_lost(switch.name, victim, now)
            return []
        flag: PollingFlag = pkt.polling_flag
        telem = self.deployment.for_switch(switch.name)
        lookback = self.config.lookback_epochs

        # CPU mirror: every polling packet notifies the controller
        # (collection-side dedup lives in the collector).
        self._victim_switches.setdefault(victim, set()).add(switch.name)
        if self._obs is not None:
            self._obs.on_polling_mirror(switch.name, victim, now)
        for fn in self._mirror_listeners:
            fn(switch.name, pkt, now)

        outputs: List[Tuple[int, PollingFlag]] = []

        if flag.traces_victim_path:
            if not self._suppressed(switch.name, victim, "victim", None, now):
                egress = self.network.routing.select_port(
                    switch.name, victim.dst_ip, victim
                )
                out_flag = PollingFlag.VICTIM_PATH
                if self.config.trace_pfc and telem.flow_paused_num(victim, now, lookback) > 0:
                    # Victim is PFC-paused here: the downstream switch (from
                    # which the PAUSE frames came) must analyze causality.
                    out_flag = PollingFlag.BOTH
                if not switch.ports[egress].peer_is_host:
                    outputs.append((egress, out_flag))
                # Destination ToR reached: victim-path tracing terminates.

        if flag.traces_pfc:
            if not self._suppressed(switch.name, victim, "pfc", ingress_port, now):
                outputs.extend(
                    self._causality_multicast(switch, telem, victim, ingress_port, now)
                )

        self.polling_packets_forwarded += len(outputs)
        if outputs and self._obs is not None:
            self._obs.on_polling_forward(switch.name, victim, now, len(outputs))
        return outputs

    def _causality_multicast(
        self, switch: Switch, telem, victim, ingress_port: int, now: int
    ) -> List[Tuple[int, PollingFlag]]:
        """Figure 6: multicast to the causally relevant egress ports only."""
        lookback = self.config.lookback_epochs
        outputs: List[Tuple[int, PollingFlag]] = []
        for port_no, port in switch.ports.items():
            if self.config.use_meters:
                volume = telem.meter_volume(ingress_port, port_no, now, lookback)
                if volume <= 0:
                    continue  # this egress does not feed the complaining ingress
            # paused packets, asserted status register, or PAUSE frames seen
            # — one batched walk over the live epoch banks.
            paused = telem.port_pause_evidence(port_no, now, lookback)
            if not paused:
                # Neither paused packets nor an asserted PFC status: the
                # buildup here is local flow contention — the initial
                # congestion point.  The trace ends; this switch's telemetry
                # (already being collected) covers it.
                continue
            if port.peer_is_host:
                # Paused by a host: PFC injection — terminal as well.
                continue
            outputs.append((port_no, PollingFlag.PFC_CAUSALITY))
        return outputs

    def _suppressed(self, switch_name: str, victim, kind: str, ingress, now: int) -> bool:
        key = (switch_name, victim, kind, ingress)
        last = self._seen.get(key)
        if last is not None and now - last < self.config.dedup_interval_ns:
            self.polling_packets_suppressed += 1
            if self._obs is not None:
                self._obs.on_polling_suppressed(switch_name, victim, now, kind)
            return True
        self._seen[key] = now
        return False
