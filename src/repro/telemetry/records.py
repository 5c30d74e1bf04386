"""Telemetry record layouts and their wire sizes.

The byte sizes below model the register/report layout on the switch and are
used by the overhead accounting (Fig 9a, Fig 14).  They match the paper's
descriptions: a flow entry stores the 5-tuple plus packet/paused/queue-depth
counters; a port entry stores the per-port counters; a meter entry is one
cell of the port-pair causality structure (Figure 3).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional, Tuple

from ..sim.packet import FlowKey

# Wire sizes (bytes).
FIVE_TUPLE_BYTES = 13  # 4 + 4 + 2 + 2 + 1
COUNTER_BYTES = 4
PORT_NO_BYTES = 1

FLOW_ENTRY_BYTES = FIVE_TUPLE_BYTES + PORT_NO_BYTES + 4 * COUNTER_BYTES  # 30
PORT_ENTRY_BYTES = PORT_NO_BYTES + 4 * COUNTER_BYTES  # 17
METER_ENTRY_BYTES = 2 * PORT_NO_BYTES + COUNTER_BYTES  # 6
PORT_STATUS_BYTES = PORT_NO_BYTES + COUNTER_BYTES  # 5


@dataclass
class FlowEntry:
    """One slot of the per-epoch flow telemetry table.

    ``qdepth_paused_sum_pkts`` accumulates the queue depths seen by the
    *paused* enqueues separately, so the analyzer can reconstruct the queue
    state experienced by contention-relevant (non-paused) packets — the
    register that implements §3.5.1's "the port-flow edge construction
    excludes the paused packets in queues".
    """

    key: FlowKey
    egress_port: int
    pkt_count: int = 0
    paused_count: int = 0
    qdepth_sum_pkts: int = 0
    byte_count: int = 0
    qdepth_paused_sum_pkts: int = 0

    def merge(self, other: "FlowEntry") -> None:
        """Accumulate another entry for the same flow (e.g., after eviction)."""
        if other.key != self.key:
            raise ValueError("cannot merge entries of different flows")
        self.pkt_count += other.pkt_count
        self.paused_count += other.paused_count
        self.qdepth_sum_pkts += other.qdepth_sum_pkts
        self.byte_count += other.byte_count
        self.qdepth_paused_sum_pkts += other.qdepth_paused_sum_pkts

    def avg_qdepth_pkts(self) -> float:
        if self.pkt_count == 0:
            return 0.0
        return self.qdepth_sum_pkts / self.pkt_count

    @property
    def unpaused_count(self) -> int:
        return self.pkt_count - self.paused_count

    def avg_unpaused_qdepth_pkts(self) -> float:
        """Average queue depth over the non-paused enqueues only."""
        n = self.unpaused_count
        if n <= 0:
            return 0.0
        return (self.qdepth_sum_pkts - self.qdepth_paused_sum_pkts) / n

    def copy(self) -> "FlowEntry":
        return FlowEntry(
            key=self.key,
            egress_port=self.egress_port,
            pkt_count=self.pkt_count,
            paused_count=self.paused_count,
            qdepth_sum_pkts=self.qdepth_sum_pkts,
            byte_count=self.byte_count,
            qdepth_paused_sum_pkts=self.qdepth_paused_sum_pkts,
        )


@dataclass
class PortEntry:
    """Per-epoch, per-egress-port counters.

    ``pause_rx_count`` counts PAUSE frames received at the port during the
    epoch — the standard per-port PFC counter every lossless switch keeps.
    It preserves pause evidence for *transient* episodes where the pause
    expires before collection and nothing enqueued while it was asserted
    (so ``paused_count`` stays 0).
    """

    port: int
    pkt_count: int = 0
    paused_count: int = 0
    qdepth_sum_pkts: int = 0
    pause_rx_count: int = 0

    def avg_qdepth_pkts(self) -> float:
        if self.pkt_count == 0:
            return 0.0
        return self.qdepth_sum_pkts / self.pkt_count

    def copy(self) -> "PortEntry":
        return PortEntry(
            port=self.port,
            pkt_count=self.pkt_count,
            paused_count=self.paused_count,
            qdepth_sum_pkts=self.qdepth_sum_pkts,
            pause_rx_count=self.pause_rx_count,
        )


@dataclass
class EpochData:
    """Everything one epoch's registers hold, post-collection.

    Instances are immutable by convention once collected: the telemetry
    plane memoizes and shares them across reports and victims, and the
    baseline transforms copy rather than mutate.  ``replay_cache`` holds
    memoized per-epoch replay contributions computed by the provenance
    builder (keyed by replay parameters); it is excluded from equality.
    ``entry_bytes`` is the entries' wire size, set by the telemetry plane
    when it builds the epoch; a hand-built epoch leaves it ``None`` and
    :meth:`payload_bytes` counts its entries on each call.
    """

    epoch_number: int
    flows: Dict[Tuple[FlowKey, int], FlowEntry] = field(default_factory=dict)
    ports: Dict[int, PortEntry] = field(default_factory=dict)
    # PFC causality meters: (ingress_port, egress_port) -> bytes (Figure 3)
    meters: Dict[Tuple[int, int], int] = field(default_factory=dict)
    replay_cache: Dict = field(default_factory=dict, repr=False, compare=False)
    entry_bytes: Optional[int] = field(default=None, repr=False, compare=False)

    def payload_bytes(self) -> int:
        """Wire size of this epoch's flow, port and meter entries."""
        if self.entry_bytes is not None:
            return self.entry_bytes
        return (
            len(self.flows) * FLOW_ENTRY_BYTES
            + len(self.ports) * PORT_ENTRY_BYTES
            + len(self.meters) * METER_ENTRY_BYTES
        )
