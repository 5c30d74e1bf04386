"""Hawkeye's PFC-aware switch telemetry (§3.3) — columnar register plane.

One :class:`HawkeyeSwitchTelemetry` instance attaches to one simulated
switch as a :class:`~repro.sim.switch.SwitchObserver` and maintains, in the
"egress pipeline":

- a ring buffer of epochs, each holding a hash-indexed flow table
  (5-tuple match with eviction on collision), per-port counters and the
  port-pair PFC causality meters of Figure 3;
- per-port PFC status registers (paused flag + remaining pause time),
  updated when PAUSE/RESUME frames are passed into the pipeline.

:meth:`HawkeyeSwitchTelemetry.snapshot` is the one read of these registers:
the polling packet's causality check and the CPU's collection share its
flush and memo.

Unlike the eager per-packet model kept as the test oracle
(``tests/telemetry/reference.py``), the port counters and meters here are
stored the way the Tofino stores them: as flat ``array('q')`` columns
indexed by port number / ``ingress * P + egress``.  The flow table keeps
the hardware's ``flow_slots`` hash slots, collisions and evictions, but
stores only its occupied slots: one dict per epoch from slot to entry, so
its memory follows the flows seen rather than the modelled capacity.  Two
further hardware-modeling choices make the per-packet cost nearly free:

**Batched pending queue.**  On real hardware the register *writes* happen
at line rate in the match-action pipeline and cost the CPU nothing; only
*reads* (snapshots) involve the switch CPU.  We model this by having
the enqueue hook append one small tuple to the epoch's pending queue and
defer all register arithmetic to the first CPU-visible *read* of that
epoch.  An epoch that is overwritten by ring wrap-around before any read
discards its pending queue unprocessed — exactly the information loss the
hardware ring has, at none of the cost.

**Lazy memoized materialization.**  :class:`~repro.telemetry.records.EpochData`
(with its :class:`FlowEntry`/:class:`PortEntry` objects) is only built when
a snapshot needs it, and is memoized per ``(epoch, version)`` so repeated
reads of an idle epoch are O(1), and a new version shares the previous
one's unchanged entries.  Whole snapshots are additionally memoized on the
live-bank list (itself memoized until time advances or a bank is reset) and
the switch's register write generation, so a re-read of an unchanged
window is two identity checks and allocates one object, the report: its
epoch tuple, window aggregates and status-register copy are shared with
every other read of the window.

Semantics are byte-identical to the reference plane — eviction order, XOR
match and wrap-around behavior included — except for one documented
deviation: :attr:`evictions` cannot count evictions inside epochs that were
discarded unread (their pending queues are dropped wholesale), mirroring
the hardware, where the controller never hears about entries displaced in
an epoch it never read.

Deviation noted for fidelity: the hardware compares only an 8-bit epoch ID
to detect ring wrap-around; we store the full epoch number, which is
equivalent unless an epoch sees no traffic for exactly ``2**id_bits`` ring
cycles (impossible in the paper's windows of interest).
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass
from itertools import chain
from typing import Dict, List, Optional, Tuple

from ..sim.packet import DATA_PRIORITY, FlowKey, Packet, pause_quanta_to_ns
from ..sim.switch import Switch, SwitchObserver
from .epoch import EpochScheme
from .records import EpochData, FlowEntry, PortEntry
from .snapshot import SwitchReport, WindowAggregates

# Flush a pending queue early once it grows past this many events so epoch
# memory stays bounded even for pathologically long epochs.  Flushing is
# transparent: processing a prefix of the queue early never changes the
# registers' final contents or ordering.
_PENDING_FLUSH_LIMIT = 1 << 16


@dataclass
class TelemetryConfig:
    """Sizing knobs for the on-switch telemetry (Fig 13's axes)."""

    scheme: EpochScheme = None  # type: ignore[assignment]
    flow_slots: int = 4096

    def __post_init__(self) -> None:
        if self.scheme is None:
            self.scheme = EpochScheme()
        if self.flow_slots <= 0:
            raise ValueError(f"flow_slots must be positive, got {self.flow_slots}")


class _EpochBank:
    """One ring-buffer epoch: the flow table, port registers, pending queue.

    ===================  ==========================================================
    ``table``            flow table: occupied slot -> entry ``[kid, egress, pkt,
                         paused, qdepth, bytes, qd_paused, (flow, egress)]``
                         (the last is its materialized dict key, made once); a
                         slot absent from the dict is empty
    ``evicted``          entries displaced by a collision, in eviction order
    ``port_pkt/paused/qdepth/pause_rx``  per-egress-port counters, indexed by port
    ``meter``            causality meters, flat ``ingress * P + egress`` index
    ===================  ==========================================================

    The port and meter columns are ``array('q')``, allocated at the first
    flush.  ``port_touched`` / ``meter_touched`` record first-touch order
    so materialization can filter zero registers without scanning the
    arrays and can reproduce the reference's dict insertion orders exactly.
    ``version`` increments on every flush/reset; it keys the memoized
    ``mat`` (the :class:`EpochData` materialization of this bank).
    """

    __slots__ = (
        "epoch_number",
        "pending",
        "version",
        "table",
        "evicted",
        "port_pkt",
        "port_paused",
        "port_qdepth",
        "port_pause_rx",
        "port_touched",
        "meter",
        "meter_touched",
        "mat",
        "mat_version",
    )

    def __init__(self) -> None:
        self.epoch_number = -1
        self.pending: List[tuple] = []
        self.version = 0
        self.table: Dict[int, list] = {}
        self.evicted: List[list] = []
        self.port_pkt: Optional[array] = None
        self.port_paused: Optional[array] = None
        self.port_qdepth: Optional[array] = None
        self.port_pause_rx: Optional[array] = None
        self.port_touched: List[int] = []
        self.meter: Optional[array] = None
        self.meter_touched: List[int] = []
        self.mat: Optional[EpochData] = None
        self.mat_version = -1


class HawkeyeSwitchTelemetry(SwitchObserver):
    """Per-switch telemetry recorder with PFC visibility and causality."""

    def __init__(self, switch_name: str, config: Optional[TelemetryConfig] = None) -> None:
        self.switch_name = switch_name
        self.config = config if config is not None else TelemetryConfig()
        self.scheme = self.config.scheme
        self._flow_slots = self.config.flow_slots
        self._shift = self.scheme.shift
        self._num_epochs = self.scheme.num_epochs
        self._ring_mask = self._num_epochs - 1
        self._banks = [_EpochBank() for _ in range(self._num_epochs)]
        # Key interning: FlowKey -> compact key id, with the hash slot
        # precomputed per key (the CRC unit in front of the flow table).
        self._key_of: Dict[FlowKey, int] = {}
        self._keys: List[FlowKey] = []
        self._key_slot: List[int] = []
        # Port count P, captured from the switch on the first hook call and
        # fixed from then on; sizes the per-port columns and the flat P*P
        # meter array.
        self._num_ports: Optional[int] = None
        # Port PFC status registers: port -> pause expiry timestamp (ns),
        # and the copy reports share until the next PAUSE frame writes one.
        self._pause_until: Dict[int, int] = {}
        self._status_copy: Optional[Dict[int, int]] = None
        self.pause_frames_seen = 0
        # Evictions observed while flushing pending queues.  Unlike the
        # reference plane this misses evictions inside epochs discarded
        # unread (ring wrap-around drops their pending queues wholesale).
        self.evictions_flushed = 0
        self.flushed_events = 0
        self.discarded_events = 0
        # Cache instrumentation (surfaced through PerfStats.caches).
        self.snapshot_cache_hits = 0
        self.snapshot_cache_misses = 0
        self.epoch_cache_hits = 0
        self.epoch_cache_misses = 0
        # A miss either shares flow entries with the bank's previous view
        # or rebuilds every one (a first view, or one after an eviction).
        self.epoch_views_shared = 0
        self.epoch_views_rebuilt = 0
        # Live-bank membership memo: changes only when time advances or a
        # bank is reset, tracked by a generation counter.
        self._reset_gen = 0
        self._live_cache: Optional[tuple] = None
        # Register write generation: bumped with every bank version, so an
        # unchanged value means no bank of any live list changed.
        self._writes = 0
        self._snap_cache: Optional[tuple] = None

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
        if self._num_ports is None:
            self._num_ports = max(switch.ports) + 1
        number = time_ns >> self._shift
        bank = self._banks[number & self._ring_mask]
        if bank.epoch_number != number:
            self._reset_bank(bank, number)
        pending = bank.pending
        pending.append(
            (
                pkt.flow,
                egress_port,
                ingress_port,
                queue_depth_pkts,
                pkt.size,
                1 if port_paused else 0,
            )
        )
        if len(pending) >= _PENDING_FLUSH_LIMIT:
            self._flush(bank)

    def on_pfc_received(
        self, switch: Switch, time_ns: int, port: int, priority: int, quanta: int
    ) -> None:
        self.pause_frames_seen += 1
        self._status_copy = None
        bandwidth = switch.ports[port].bandwidth
        if quanta > 0:
            # The status register is written eagerly (last write wins, so it
            # commutes with the pending queue); the per-epoch PAUSE counter
            # rides the same queue as enqueues to preserve total event order.
            self._pause_until[port] = time_ns + pause_quanta_to_ns(quanta, bandwidth)
            if self._num_ports is None:
                self._num_ports = max(switch.ports) + 1
            number = time_ns >> self._shift
            bank = self._banks[number & self._ring_mask]
            if bank.epoch_number != number:
                self._reset_bank(bank, number)
            bank.pending.append((None, port))
        else:
            self._pause_until[port] = time_ns

    # -- internal -----------------------------------------------------------------

    def _reset_bank(self, bank: _EpochBank, epoch_number: int) -> None:
        """Ring wrap-around: a newer epoch number reclaims this bank.

        Events still pending are discarded unprocessed — the hardware never
        spent CPU on an epoch nobody read.  Port and meter columns are
        cleared via the touch lists, so reset is O(touched), not O(capacity).
        """
        if bank.pending:
            self.discarded_events += len(bank.pending)
            bank.pending.clear()
        bank.epoch_number = epoch_number
        bank.version += 1
        self._writes += 1
        bank.mat = None
        bank.mat_version = -1
        bank.table.clear()
        bank.evicted.clear()
        if bank.port_pkt is not None:
            port_pkt = bank.port_pkt
            port_paused = bank.port_paused
            port_qdepth = bank.port_qdepth
            port_pause_rx = bank.port_pause_rx
            for p in bank.port_touched:
                port_pkt[p] = 0
                port_paused[p] = 0
                port_qdepth[p] = 0
                port_pause_rx[p] = 0
            bank.port_touched.clear()
            meter = bank.meter
            for mi in bank.meter_touched:
                meter[mi] = 0
            bank.meter_touched.clear()
        self._reset_gen += 1

    def _allocate(self, bank: _EpochBank) -> None:
        num_ports = self._num_ports
        port_zeros = bytes(8 * num_ports)
        bank.port_pkt = array("q", port_zeros)
        bank.port_paused = array("q", port_zeros)
        bank.port_qdepth = array("q", port_zeros)
        bank.port_pause_rx = array("q", port_zeros)
        bank.meter = array("q", bytes(8 * num_ports * num_ports))

    def _flush(self, bank: _EpochBank) -> None:
        """Drain the pending queue into the registers, in order."""
        pending = bank.pending
        if not pending:
            return
        if bank.port_pkt is None:
            self._allocate(bank)
        num_ports = self._num_ports
        key_of_get = self._key_of.get
        key_of = self._key_of
        keys = self._keys
        key_slot = self._key_slot
        flow_slots = self._flow_slots
        table = bank.table
        table_get = table.get
        evicted = bank.evicted
        port_pkt = bank.port_pkt
        port_paused_arr = bank.port_paused
        port_qdepth = bank.port_qdepth
        port_pause_rx = bank.port_pause_rx
        port_touched = bank.port_touched
        meter = bank.meter
        meter_touched = bank.meter_touched
        evictions = 0
        for ev in pending:
            flow = ev[0]
            if flow is None:
                port = ev[1]
                if port_pkt[port] == 0 and port_pause_rx[port] == 0:
                    port_touched.append(port)
                port_pause_rx[port] += 1
                continue
            _, egress, ingress, qdepth, size, paused = ev
            kid = key_of_get(flow)
            if kid is None:
                kid = len(keys)
                key_of[flow] = kid
                keys.append(flow)
                key_slot.append(flow.stable_hash() % flow_slots)
            slot = key_slot[kid]
            entry = table_get(slot)
            if entry is None or entry[0] != kid:
                if entry is not None:
                    # Collision: displace the resident entry to the evicted
                    # list ("stored at the controller"), preserving order.
                    evicted.append(entry)
                    evictions += 1
                table[slot] = [
                    kid, egress, 1, paused, qdepth, size, qdepth if paused else 0,
                    (flow, egress),
                ]
            else:
                entry[2] += 1
                entry[3] += paused
                entry[4] += qdepth
                entry[5] += size
                if paused:
                    entry[6] += qdepth
            if port_pkt[egress] == 0 and port_pause_rx[egress] == 0:
                port_touched.append(egress)
            port_pkt[egress] += 1
            port_paused_arr[egress] += paused
            port_qdepth[egress] += qdepth
            if ingress is not None:
                mi = ingress * num_ports + egress
                if meter[mi] == 0:
                    meter_touched.append(mi)
                meter[mi] += size
        self.evictions_flushed += evictions
        self.flushed_events += len(pending)
        pending.clear()
        bank.version += 1
        self._writes += 1

    def _live_banks(self, now_ns: int) -> List[_EpochBank]:
        """The epochs still present in the ring, no newer than ``now``.

        Hardware semantics: registers are reset lazily, on the first *write*
        of a newer epoch — so an epoch that saw the last traffic before the
        network froze (e.g. a forming deadlock) stays readable indefinitely.
        The CPU reads whatever the ring holds, oldest first.  Membership is
        memoized until time advances or a bank is reset.
        """
        now_number = now_ns >> self._shift
        cached = self._live_cache
        if cached is not None and cached[0] == now_number and cached[1] == self._reset_gen:
            return cached[2]
        banks = sorted(
            (b for b in self._banks if 0 <= b.epoch_number <= now_number),
            key=lambda b: b.epoch_number,
        )
        self._live_cache = (now_number, self._reset_gen, banks)
        return banks

    def _materialize(self, bank: _EpochBank) -> EpochData:
        """Build (or reuse) the :class:`EpochData` view of one bank.

        Entry order matches the reference exactly: evicted entries first in
        eviction order, then occupied slots in ascending slot index; ports
        and meters in first-touch order.

        A new view shares every entry whose counts held since the bank's
        previous view; that view is never mutated (a delivered report may
        hold it).  Every write bumps a packet or PAUSE count, so an entry
        whose counts held is unchanged.  Flow entries are shared only while
        the bank has evicted none: then each is one slot's, not a merge.
        """
        if bank.pending:
            self._flush(bank)
        prev = bank.mat
        if prev is not None and bank.mat_version == bank.version:
            self.epoch_cache_hits += 1
            return prev
        self.epoch_cache_misses += 1
        epoch = EpochData(epoch_number=bank.epoch_number)
        flows = epoch.flows
        table = bank.table
        evicted = bank.evicted
        prev_flows = prev.flows if prev is not None and not evicted else {}
        shared = False
        entries = chain(evicted, [table[slot] for slot in sorted(table)])
        for _kid, egress, pkt, paused, qdepth, byte_count, qd_paused, key in entries:
            old = prev_flows.get(key)
            if old is not None and old.pkt_count == pkt:
                flows[key] = old
                shared = True
                continue
            existing = flows.get(key)
            if existing is None:
                flows[key] = FlowEntry(
                    key=key[0],
                    egress_port=egress,
                    pkt_count=pkt,
                    paused_count=paused,
                    qdepth_sum_pkts=qdepth,
                    byte_count=byte_count,
                    qdepth_paused_sum_pkts=qd_paused,
                )
            else:
                existing.pkt_count += pkt
                existing.paused_count += paused
                existing.qdepth_sum_pkts += qdepth
                existing.byte_count += byte_count
                existing.qdepth_paused_sum_pkts += qd_paused
        port_pkt = bank.port_pkt
        port_paused = bank.port_paused
        port_qdepth = bank.port_qdepth
        port_pause_rx = bank.port_pause_rx
        prev_ports = prev.ports if prev is not None else {}
        ports = epoch.ports
        for port in bank.port_touched:
            pkt = port_pkt[port]
            pause_rx = port_pause_rx[port]
            old = prev_ports.get(port)
            if old is not None and old.pkt_count == pkt and old.pause_rx_count == pause_rx:
                ports[port] = old
                continue
            ports[port] = PortEntry(
                port=port,
                pkt_count=pkt,
                paused_count=port_paused[port],
                qdepth_sum_pkts=port_qdepth[port],
                pause_rx_count=pause_rx,
            )
        meter = bank.meter
        num_ports = self._num_ports
        meters = epoch.meters
        for mi in bank.meter_touched:
            meters[divmod(mi, num_ports)] = meter[mi]
        epoch.entry_bytes = epoch.payload_bytes()
        if shared:
            self.epoch_views_shared += 1
        else:
            self.epoch_views_rebuilt += 1
        bank.mat = epoch
        bank.mat_version = bank.version
        return epoch

    # -- counters -------------------------------------------------------------------

    @property
    def evictions(self) -> int:
        """Evictions observed so far (flushes live pending queues).

        Documented deviation from the reference: evictions inside epochs
        discarded unread are not counted — the controller never saw them.
        """
        for bank in self._banks:
            if bank.pending:
                self._flush(bank)
        return self.evictions_flushed

    # -- the one read (polling and collection) ---------------------------------------

    def snapshot(self, now_ns: int) -> SwitchReport:
        """Materialize the live epochs as a report: the one register read.

        Evicted flow entries were already "stored at the controller" when
        they were displaced, so they are merged back into their epoch here.
        Epoch materializations are memoized per bank version and the whole
        epoch tuple per ``(live-bank list, write generation)``: the list is
        the same object until time advances or a bank is reset, and the
        generation moves with every register write, so a re-read of an
        idle window is O(1) and allocates only the report.  Every report of
        a window shares its epoch tuple and :class:`WindowAggregates`, and
        every report between two PAUSE frames shares one copy of the status
        registers, from which it derives ``port_status`` at ``now_ns``.
        """
        live = self._live_banks(now_ns)
        for bank in live:
            if bank.pending:
                self._flush(bank)
        cached = self._snap_cache
        if cached is not None and cached[0] is live and cached[1] == self._writes:
            self.snapshot_cache_hits += 1
            epochs = cached[2]
            window = cached[3]
        else:
            self.snapshot_cache_misses += 1
            epochs = tuple([self._materialize(bank) for bank in live])
            window = WindowAggregates(epochs)
            self._snap_cache = (live, self._writes, epochs, window)
        status = self._status_copy
        if status is None:
            status = self._status_copy = dict(self._pause_until)
        return SwitchReport.from_registers(
            self.switch_name, now_ns, epochs, status, window
        )


class HawkeyeDeployment:
    """Deploys Hawkeye telemetry on (a subset of) a network's switches.

    Supports the partial-deployment discussion of §5 via ``switches``.
    Every attach path constructs one, so it marks the network as the
    fabric the next :class:`~repro.sim.network.Network` reclaims (see
    :func:`repro.sim.network.collect_finished_fabric`).
    """

    def __init__(self, network, config: Optional[TelemetryConfig] = None, switches=None):
        network.mark_attached()
        self.network = network
        self.config = config if config is not None else TelemetryConfig()
        names = switches if switches is not None else list(network.switches)
        self.telemetry: Dict[str, HawkeyeSwitchTelemetry] = {}
        for name in names:
            telem = HawkeyeSwitchTelemetry(name, self.config)
            network.switches[name].add_observer(telem)
            self.telemetry[name] = telem

    def for_switch(self, name: str) -> HawkeyeSwitchTelemetry:
        return self.telemetry[name]

    def __contains__(self, name: str) -> bool:
        return name in self.telemetry

    def cache_counters(self) -> Dict[str, Tuple[int, int]]:
        """Aggregate (hits, misses) for the snapshot/epoch caches, and the
        epoch misses split (shared, rebuilt) as ``telemetry_epoch_share``."""
        snap_h = snap_m = epoch_h = epoch_m = shared = rebuilt = 0
        for telem in self.telemetry.values():
            snap_h += telem.snapshot_cache_hits
            snap_m += telem.snapshot_cache_misses
            epoch_h += telem.epoch_cache_hits
            epoch_m += telem.epoch_cache_misses
            shared += telem.epoch_views_shared
            rebuilt += telem.epoch_views_rebuilt
        return {
            "telemetry_snapshot": (snap_h, snap_m),
            "telemetry_epoch_materialize": (epoch_h, epoch_m),
            "telemetry_epoch_share": (shared, rebuilt),
        }
