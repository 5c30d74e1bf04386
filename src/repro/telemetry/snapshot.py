"""Collected telemetry reports and their aggregation/size accounting.

A :class:`SwitchReport` is what the switch CPU ships to the analyzer after a
polling packet arrives (§3.4): the per-epoch flow/port/meter registers,
filtered of empty slots, plus the instantaneous port PFC status.  The
aggregation helpers collapse the epoch dimension for the provenance builder
(Algorithm 1 runs on per-window aggregates).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional, Sequence, Tuple

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


class WindowAggregates:
    """The aggregate memo of one epoch sequence.

    The telemetry plane hands one instance to every report it reads from
    the same memoised window, so the analyzer's graph builds aggregate a
    window once.  A report whose ``epochs`` is rebound (a truncated report)
    no longer matches ``epochs`` and starts its own.
    """

    __slots__ = ("epochs", "flows", "ports", "meters")

    def __init__(self, epochs: Sequence[EpochData]) -> None:
        self.epochs = epochs
        self.flows: Optional[Dict[Tuple[FlowKey, int], FlowEntry]] = None
        self.ports: Optional[Dict[int, PortEntry]] = None
        self.meters: Optional[Dict[Tuple[int, int], int]] = None


@dataclass(slots=True)
class SwitchReport:
    """Telemetry collected from one switch for one diagnosis event.

    Reports are immutable by convention once collected (the baseline
    transforms build new reports instead of mutating), which lets the
    ``agg_*`` aggregates be computed lazily once and memoized — the
    analyzer re-reads the same report for every victim of an incident.
    Callers must treat the returned dicts, and ``epochs``, as read-only: a
    consumer that trims a report rebinds ``epochs``.

    Hand-built reports (baselines, tests) pass ``port_status``.  A report
    the telemetry plane reads (:meth:`from_registers`) shares its window's
    epoch tuple and aggregates, and keeps the status registers it read
    (port -> pause expiry) with its read instant instead: ``port_status``
    is derived from them on first access.
    """

    switch: str
    collect_time: int
    epochs: Sequence[EpochData] = field(default_factory=list)
    # port -> remaining pause time (ns) at the read, 0 if unpaused
    port_status: Dict[int, int] = field(default_factory=dict)
    # Fault-injection quality markers ("stale", "truncated", "skewed"): a
    # non-empty tuple means this report's content is suspect and any
    # diagnosis consuming it must be flagged as degraded.
    faults: Tuple[str, ...] = ()
    _pause_until: Optional[Dict[int, int]] = field(
        default=None, init=False, repr=False, compare=False
    )
    _read_at: int = field(default=0, init=False, repr=False, compare=False)
    _agg: Optional[WindowAggregates] = field(
        default=None, init=False, repr=False, compare=False
    )

    @classmethod
    def from_registers(
        cls,
        switch: str,
        now_ns: int,
        epochs: Tuple[EpochData, ...],
        pause_until: Dict[int, int],
        window: WindowAggregates,
    ) -> "SwitchReport":
        """A register read at ``now_ns``: one allocation, the report.

        ``epochs``, ``pause_until`` and ``window`` are shared with every
        other read of the same window and must never be mutated.
        """
        report = object.__new__(cls)
        report.switch = switch
        report.collect_time = now_ns
        report.epochs = epochs
        report.faults = ()
        report._pause_until = pause_until
        report._read_at = now_ns
        report._agg = window
        return report

    def __getattr__(self, name: str):
        # Reached only for an unset slot: the lazy ``port_status``.
        if name != "port_status" or self._pause_until is None:
            raise AttributeError(name)
        at = self._read_at
        status = self.port_status = {
            port: until - at if until > at else 0
            for port, until in self._pause_until.items()
        }
        return status

    def __getstate__(self):
        # The shard pipe ships plain data: no memo, no register copy.
        return (
            self.switch, self.collect_time, self.epochs, self.port_status,
            self.faults,
        )

    def __setstate__(self, state) -> None:
        (
            self.switch, self.collect_time, self.epochs, self.port_status,
            self.faults,
        ) = state
        self._pause_until = None
        self._read_at = 0
        self._agg = None

    # -- aggregation across epochs ------------------------------------------------

    def _window(self) -> WindowAggregates:
        agg = self._agg
        if agg is None or agg.epochs is not self.epochs:
            agg = self._agg = WindowAggregates(self.epochs)
        return agg

    def agg_flows(self) -> Dict[Tuple[FlowKey, int], FlowEntry]:
        """Per (flow, egress port) totals over all reported epochs."""
        agg = self._window()
        if agg.flows is not None:
            AGG_CACHE_STATS[0] += 1
            return agg.flows
        AGG_CACHE_STATS[1] += 1
        out: Dict[Tuple[FlowKey, int], FlowEntry] = {}
        for epoch in self.epochs:
            for key, entry in epoch.flows.items():
                existing = out.get(key)
                if existing is None:
                    out[key] = entry.copy()
                else:
                    existing.merge(entry)
        agg.flows = out
        return out

    def agg_ports(self) -> Dict[int, PortEntry]:
        """Per egress-port totals over all reported epochs."""
        agg = self._window()
        if agg.ports is not None:
            AGG_CACHE_STATS[0] += 1
            return agg.ports
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
        agg.ports = out
        return out

    def agg_meters(self) -> Dict[Tuple[int, int], int]:
        """Per (ingress, egress) byte totals over all reported epochs."""
        agg = self._window()
        if agg.meters is not None:
            AGG_CACHE_STATS[0] += 1
            return agg.meters
        AGG_CACHE_STATS[1] += 1
        out: Dict[Tuple[int, int], int] = {}
        for epoch in self.epochs:
            for pair, volume in epoch.meters.items():
                out[pair] = out.get(pair, 0) + volume
        agg.meters = out
        return out

    # -- the polling engine's questions (§3.4) ----------------------------------------
    #
    # Read from the epochs in place: a polling packet's window has usually
    # changed since the last one, so an aggregate would be built per packet.

    def flow_paused_count(self, key: FlowKey, egress_port: Optional[int] = None) -> int:
        """Paused packets of one flow, at one egress port or over all."""
        total = 0
        for epoch in self.epochs:
            for (flow, port), entry in epoch.flows.items():
                if flow == key and (egress_port is None or port == egress_port):
                    total += entry.paused_count
        return total

    def feeds(self, ingress: int, egress: int) -> bool:
        """Did ``ingress`` send bytes to ``egress`` in a reported epoch (a
        Figure-3 meter above 0)?"""
        pair = (ingress, egress)
        for epoch in self.epochs:
            if epoch.meters.get(pair, 0) > 0:
                return True
        return False

    def pfc_evidence(self, port: int) -> bool:
        """PFC evidence at an egress port: its status register asserted at
        the read, or paused enqueues or PAUSE frames received in a reported
        epoch."""
        if self.port_status.get(port, 0) > 0:
            return True
        for epoch in self.epochs:
            entry = epoch.ports.get(port)
            if entry is not None and (entry.paused_count > 0 or entry.pause_rx_count > 0):
                return True
        return False

    # -- size accounting (Fig 9a / Fig 14) -----------------------------------------

    def num_flow_entries(self) -> int:
        return sum(len(e.flows) for e in self.epochs)

    def payload_bytes(self) -> int:
        """Size of the CPU-filtered report (zero slots excluded)."""
        registers = self._pause_until
        statuses = len(registers if registers is not None else self.port_status)
        total = statuses * PORT_STATUS_BYTES
        for epoch in self.epochs:
            size = epoch.entry_bytes
            total += size if size is not None else epoch.payload_bytes()
        return total

    @staticmethod
    def full_dump_bytes(flow_slots: int, num_ports: int, num_epochs: int) -> int:
        """Size of dumping the raw register arrays without filtering."""
        per_epoch = (
            flow_slots * FLOW_ENTRY_BYTES
            + num_ports * PORT_ENTRY_BYTES
            + num_ports * num_ports * METER_ENTRY_BYTES
        )
        return num_epochs * per_epoch + num_ports * PORT_STATUS_BYTES

