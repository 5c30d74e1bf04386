"""Collected telemetry reports and their aggregation/size accounting.

A :class:`SwitchReport` is what the switch CPU ships to the analyzer after a
polling packet arrives (§3.4): the per-epoch flow/port/meter registers,
filtered of empty slots, plus the instantaneous port PFC status.  The
aggregation helpers collapse the epoch dimension for the provenance builder
(Algorithm 1 runs on per-window aggregates).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from ..sim.packet import FlowKey
from .records import (
    FLOW_ENTRY_BYTES,
    METER_ENTRY_BYTES,
    PORT_ENTRY_BYTES,
    PORT_STATUS_BYTES,
    EpochData,
    FlowEntry,
    PortEntry,
)

# (hits, misses) of the lazy agg_* memoization, surfaced via PerfStats.
AGG_CACHE_STATS = [0, 0]


@dataclass
class SwitchReport:
    """Telemetry collected from one switch for one diagnosis event.

    Reports are immutable by convention once collected (the baseline
    transforms build new reports instead of mutating), which lets the
    ``agg_*`` aggregates be computed lazily once and memoized — the
    analyzer re-reads the same report for every victim of an incident.
    Callers must treat the returned dicts as read-only.
    """

    switch: str
    collect_time: int
    epochs: List[EpochData] = field(default_factory=list)
    # port -> remaining pause time (ns) at collection, 0 if unpaused
    port_status: Dict[int, int] = field(default_factory=dict)
    # Fault-injection quality markers ("stale", "truncated", "skewed"): a
    # non-empty tuple means this report's content is suspect and any
    # diagnosis consuming it must be flagged as degraded.
    faults: Tuple[str, ...] = ()
    _agg_flows: Optional[Dict] = field(default=None, init=False, repr=False, compare=False)
    _agg_ports: Optional[Dict] = field(default=None, init=False, repr=False, compare=False)
    _agg_meters: Optional[Dict] = field(default=None, init=False, repr=False, compare=False)

    # -- aggregation across epochs ------------------------------------------------

    def agg_flows(self) -> Dict[Tuple[FlowKey, int], FlowEntry]:
        """Per (flow, egress port) totals over all reported epochs."""
        if self._agg_flows is not None:
            AGG_CACHE_STATS[0] += 1
            return self._agg_flows
        AGG_CACHE_STATS[1] += 1
        out: Dict[Tuple[FlowKey, int], FlowEntry] = {}
        for epoch in self.epochs:
            for key, entry in epoch.flows.items():
                existing = out.get(key)
                if existing is None:
                    out[key] = entry.copy()
                else:
                    existing.merge(entry)
        self._agg_flows = out
        return out

    def agg_ports(self) -> Dict[int, PortEntry]:
        """Per egress-port totals over all reported epochs."""
        if self._agg_ports is not None:
            AGG_CACHE_STATS[0] += 1
            return self._agg_ports
        AGG_CACHE_STATS[1] += 1
        out: Dict[int, PortEntry] = {}
        for epoch in self.epochs:
            for port, entry in epoch.ports.items():
                existing = out.get(port)
                if existing is None:
                    out[port] = entry.copy()
                else:
                    existing.pkt_count += entry.pkt_count
                    existing.paused_count += entry.paused_count
                    existing.qdepth_sum_pkts += entry.qdepth_sum_pkts
                    existing.pause_rx_count += entry.pause_rx_count
        self._agg_ports = out
        return out

    def agg_meters(self) -> Dict[Tuple[int, int], int]:
        """Per (ingress, egress) byte totals over all reported epochs."""
        if self._agg_meters is not None:
            AGG_CACHE_STATS[0] += 1
            return self._agg_meters
        AGG_CACHE_STATS[1] += 1
        out: Dict[Tuple[int, int], int] = {}
        for epoch in self.epochs:
            for pair, volume in epoch.meters.items():
                out[pair] = out.get(pair, 0) + volume
        self._agg_meters = out
        return out

    def flow_paused_count(self, key: FlowKey, egress_port: Optional[int] = None) -> int:
        total = 0
        for (flow, port), entry in self.agg_flows().items():
            if flow == key and (egress_port is None or port == egress_port):
                total += entry.paused_count
        return total

    # -- size accounting (Fig 9a / Fig 14) -----------------------------------------

    def num_flow_entries(self) -> int:
        return sum(len(e.flows) for e in self.epochs)

    def payload_bytes(self) -> int:
        """Size of the CPU-filtered report (zero slots excluded)."""
        flows = ports = meters = 0
        for epoch in self.epochs:
            flows += len(epoch.flows)
            ports += len(epoch.ports)
            meters += len(epoch.meters)
        return (
            flows * FLOW_ENTRY_BYTES
            + ports * PORT_ENTRY_BYTES
            + meters * METER_ENTRY_BYTES
            + len(self.port_status) * PORT_STATUS_BYTES
        )

    @staticmethod
    def full_dump_bytes(flow_slots: int, num_ports: int, num_epochs: int) -> int:
        """Size of dumping the raw register arrays without filtering."""
        per_epoch = (
            flow_slots * FLOW_ENTRY_BYTES
            + num_ports * PORT_ENTRY_BYTES
            + num_ports * num_ports * METER_ENTRY_BYTES
        )
        return num_epochs * per_epoch + num_ports * PORT_STATUS_BYTES


def merge_reports(reports: List[SwitchReport]) -> Dict[str, SwitchReport]:
    """Index reports by switch, keeping the freshest for duplicates."""
    by_switch: Dict[str, SwitchReport] = {}
    for report in reports:
        existing = by_switch.get(report.switch)
        if existing is None or report.collect_time > existing.collect_time:
            by_switch[report.switch] = report
    return by_switch
