"""Reference (pure-Python, eager) switch telemetry: the test oracle.

This is the original per-packet object implementation of the §3.3 register
plane: every data-packet enqueue allocates/updates :class:`FlowEntry` /
:class:`PortEntry` dataclasses and walks dicts, and the flow table is a
dense list of ``flow_slots`` entries.  It is kept, outside the package, as
the **authoritative semantic reference** for the register plane in
:mod:`repro.telemetry.hawkeye`: the differential property tests feed
identical packet streams to both and require equal snapshots, reader answers
and register orderings (eviction order, XOR match, wrap-around).

Keep this implementation boring and obviously correct; optimizations go in
:mod:`repro.telemetry.hawkeye`.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.sim.packet import DATA_PRIORITY, FlowKey, Packet, pause_quanta_to_ns
from repro.sim.switch import Switch, SwitchObserver
from repro.telemetry import TelemetryConfig
from repro.telemetry.records import EpochData, FlowEntry, PortEntry
from repro.telemetry.snapshot import SwitchReport


class _EpochRegisters:
    """The live register arrays for one ring-buffer epoch (object form)."""

    __slots__ = ("epoch_number", "slots", "evicted", "ports", "meters")

    def __init__(self, flow_slots: int) -> None:
        self.epoch_number = -1
        self.slots: List[Optional[FlowEntry]] = [None] * flow_slots
        self.evicted: List[FlowEntry] = []
        self.ports: Dict[int, PortEntry] = {}
        self.meters: Dict[Tuple[int, int], int] = {}

    def reset(self, epoch_number: int) -> None:
        self.epoch_number = epoch_number
        for i in range(len(self.slots)):
            self.slots[i] = None
        self.evicted.clear()
        self.ports.clear()
        self.meters.clear()


class ReferenceSwitchTelemetry(SwitchObserver):
    """Eager per-packet telemetry recorder (original implementation)."""

    def __init__(self, switch_name: str, config=None) -> None:
        self.switch_name = switch_name
        self.config = config if config is not None else TelemetryConfig()
        self.scheme = self.config.scheme
        self._rings = [
            _EpochRegisters(self.config.flow_slots)
            for _ in range(self.scheme.num_epochs)
        ]
        # Port PFC status registers: port -> pause expiry timestamp (ns).
        self._pause_until: Dict[int, int] = {}
        self.pause_frames_seen = 0
        self.evictions = 0

    # -- observer hooks -------------------------------------------------------

    def on_egress_enqueue(
        self,
        switch: Switch,
        time_ns: int,
        pkt: Packet,
        egress_port: int,
        ingress_port: Optional[int],
        queue_depth_pkts: int,
        queue_bytes: int,
        port_paused: bool,
    ) -> None:
        if pkt.priority != DATA_PRIORITY or pkt.flow is None:
            return  # control traffic is not part of flow telemetry
        reg = self._registers_for(time_ns)
        paused = 1 if port_paused else 0

        # Flow-level telemetry (hash slot, XOR match, evict on collision).
        slot_idx = pkt.flow.stable_hash() % self.config.flow_slots
        entry = reg.slots[slot_idx]
        if entry is None or entry.key != pkt.flow:
            if entry is not None:
                reg.evicted.append(entry)
                self.evictions += 1
            entry = FlowEntry(key=pkt.flow, egress_port=egress_port)
            reg.slots[slot_idx] = entry
        entry.pkt_count += 1
        entry.paused_count += paused
        entry.qdepth_sum_pkts += queue_depth_pkts
        entry.byte_count += pkt.size
        if paused:
            entry.qdepth_paused_sum_pkts += queue_depth_pkts

        # Port-level telemetry.
        port_entry = reg.ports.get(egress_port)
        if port_entry is None:
            port_entry = PortEntry(port=egress_port)
            reg.ports[egress_port] = port_entry
        port_entry.pkt_count += 1
        port_entry.paused_count += paused
        port_entry.qdepth_sum_pkts += queue_depth_pkts

        # PFC causality meter (Figure 3): volume from ingress to egress port.
        if ingress_port is not None:
            pair = (ingress_port, egress_port)
            reg.meters[pair] = reg.meters.get(pair, 0) + pkt.size

    def on_pfc_received(
        self, switch: Switch, time_ns: int, port: int, priority: int, quanta: int
    ) -> None:
        self.pause_frames_seen += 1
        bandwidth = switch.ports[port].bandwidth
        if quanta > 0:
            self._pause_until[port] = time_ns + pause_quanta_to_ns(quanta, bandwidth)
            reg = self._registers_for(time_ns)
            entry = reg.ports.get(port)
            if entry is None:
                entry = PortEntry(port=port)
                reg.ports[port] = entry
            entry.pause_rx_count += 1
        else:
            self._pause_until[port] = time_ns

    # -- internal -----------------------------------------------------------------

    def _registers_for(self, time_ns: int) -> _EpochRegisters:
        number = self.scheme.epoch_number(time_ns)
        reg = self._rings[number & (self.scheme.num_epochs - 1)]
        if reg.epoch_number != number:
            reg.reset(number)  # ring wrap-around: newer epoch ID resets registers
        return reg

    def _live_epochs(self, now_ns: int) -> List[_EpochRegisters]:
        now_number = self.scheme.epoch_number(now_ns)
        return sorted(
            (reg for reg in self._rings if 0 <= reg.epoch_number <= now_number),
            key=lambda reg: reg.epoch_number,
        )

    # -- per-register readers (what the columnar plane's snapshot must give) -------

    def port_paused_num(self, port: int, now_ns: int) -> int:
        total = 0
        for reg in self._live_epochs(now_ns):
            entry = reg.ports.get(port)
            if entry is not None:
                total += entry.paused_count
        return total

    def flow_paused_num(self, key: FlowKey, now_ns: int) -> int:
        total = 0
        slot_idx = key.stable_hash() % self.config.flow_slots
        for reg in self._live_epochs(now_ns):
            entry = reg.slots[slot_idx]
            if entry is not None and entry.key == key:
                total += entry.paused_count
            for evicted in reg.evicted:
                if evicted.key == key:
                    total += evicted.paused_count
        return total

    def meter_volume(self, ingress_port: int, egress_port: int, now_ns: int) -> int:
        total = 0
        for reg in self._live_epochs(now_ns):
            total += reg.meters.get((ingress_port, egress_port), 0)
        return total

    def port_pause_rx(self, port: int, now_ns: int) -> int:
        total = 0
        for reg in self._live_epochs(now_ns):
            entry = reg.ports.get(port)
            if entry is not None:
                total += entry.pause_rx_count
        return total

    def port_is_paused(self, port: int, now_ns: int) -> bool:
        return self._pause_until.get(port, 0) > now_ns

    def remaining_pause_ns(self, port: int, now_ns: int) -> int:
        return max(0, self._pause_until.get(port, 0) - now_ns)

    def port_pause_evidence(self, port: int, now_ns: int) -> bool:
        """Any PFC evidence at ``port``: paused enqueues, an asserted status
        register, or PAUSE frames received during the retained epochs."""
        return (
            self.port_paused_num(port, now_ns) > 0
            or self.port_is_paused(port, now_ns)
            or self.port_pause_rx(port, now_ns) > 0
        )

    # -- collection -----------------------------------------------------------------

    def snapshot(self, now_ns: int) -> SwitchReport:
        report = SwitchReport(switch=self.switch_name, collect_time=now_ns)
        for reg in self._live_epochs(now_ns):
            epoch = EpochData(epoch_number=reg.epoch_number)
            for entry in list(reg.evicted) + [e for e in reg.slots if e is not None]:
                key = (entry.key, entry.egress_port)
                existing = epoch.flows.get(key)
                if existing is None:
                    epoch.flows[key] = entry.copy()
                else:
                    existing.merge(entry)
            for port, pentry in reg.ports.items():
                epoch.ports[port] = pentry.copy()
            epoch.meters = dict(reg.meters)
            report.epochs.append(epoch)
        report.port_status = {
            port: max(0, until - now_ns) for port, until in self._pause_until.items()
        }
        return report
