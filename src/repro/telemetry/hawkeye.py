"""Hawkeye's PFC-aware switch telemetry (§3.3) — columnar register plane.

One :class:`HawkeyeSwitchTelemetry` instance attaches to one simulated
switch as a :class:`~repro.sim.switch.SwitchObserver` and maintains, in the
"egress pipeline":

- a ring buffer of epochs, each holding a hash-indexed flow table
  (5-tuple match with eviction on collision), per-port counters and the
  port-pair PFC causality meters of Figure 3;
- per-port PFC status registers (paused flag + remaining pause time),
  updated when PAUSE/RESUME frames are passed into the pipeline.

Unlike the retained reference implementation
(:mod:`repro.telemetry.reference`), the registers here are stored the way
the Tofino stores them: as flat parallel ``array('q')`` columns indexed by
flow slot / port number / ``ingress * P + egress``, not as per-entry Python
objects.  Two further hardware-modeling choices make the per-packet cost
nearly free:

**Batched pending queue.**  On real hardware the register *writes* happen
at line rate in the match-action pipeline and cost the CPU nothing; only
*reads* (polls, snapshots) involve the switch CPU.  We model this by having
the enqueue hook append one small tuple to the epoch's pending queue and
defer all register arithmetic to the first CPU-visible *read* of that
epoch.  An epoch that is overwritten by ring wrap-around before any read
discards its pending queue unprocessed — exactly the information loss the
hardware ring has, at none of the cost.

**Lazy memoized materialization.**  :class:`~repro.telemetry.records.EpochData`
(with its :class:`FlowEntry`/:class:`PortEntry` objects) is only built when
a snapshot or query needs it, and is memoized per ``(epoch, version)`` so
repeated collector/poller reads of an idle epoch are O(1).  Whole snapshots
are additionally memoized by ``(epoch_number, lookback, bank versions)``.

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

import gc
import weakref
from array import array
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from ..sim.packet import DATA_PRIORITY, FlowKey, Packet, pause_quanta_to_ns
from ..sim.switch import Switch, SwitchObserver
from . import vectorflush
from .epoch import EpochScheme
from .records import EpochData, FlowEntry, PortEntry
from .snapshot import SwitchReport

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


class _EpochBank:
    """One ring-buffer epoch: flat register columns plus a pending queue.

    Columns (all ``array('q')``, allocated lazily at the first flush):

    ===================  ==========================================================
    ``slot_kid``         flow-table key register: interned key id, ``-1`` if empty
    ``slot_egress``      flow-table egress-port register (set at install)
    ``slot_pkt``         per-slot packet counter
    ``slot_paused``      per-slot paused-packet counter
    ``slot_qdepth``      per-slot queue-depth accumulator (pkts)
    ``slot_bytes``       per-slot byte counter
    ``slot_qd_paused``   per-slot queue-depth accumulator over paused packets
    ``port_pkt/paused/qdepth/pause_rx``  per-egress-port counters, indexed by port
    ``meter``            causality meters, flat ``ingress * P + egress`` index
    ===================  ==========================================================

    ``occupied`` / ``port_touched`` / ``meter_touched`` record first-touch
    order so materialization can filter zero registers without scanning the
    arrays and can reproduce the reference's dict insertion orders exactly.
    ``version`` increments on every flush/reset; it keys the memoized
    ``mat`` (the :class:`EpochData` materialization of this bank).
    """

    __slots__ = (
        "epoch_number",
        "pending",
        "version",
        "slot_kid",
        "slot_egress",
        "slot_pkt",
        "slot_paused",
        "slot_qdepth",
        "slot_bytes",
        "slot_qd_paused",
        "occupied",
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
        self.slot_kid: Optional[array] = None
        self.slot_egress: Optional[array] = None
        self.slot_pkt: Optional[array] = None
        self.slot_paused: Optional[array] = None
        self.slot_qdepth: Optional[array] = None
        self.slot_bytes: Optional[array] = None
        self.slot_qd_paused: Optional[array] = None
        self.occupied: List[int] = []
        self.evicted: List[tuple] = []
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
        # Port count P, captured from the switch on the first hook call;
        # sizes the per-port columns and the flat P*P meter array.
        self._num_ports: Optional[int] = None
        self._neg1_template: Optional[array] = None
        # Port PFC status registers: port -> pause expiry timestamp (ns).
        self._pause_until: Dict[int, int] = {}
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
        # Live-bank membership memo: changes only when time advances or a
        # bank is reset, tracked by a generation counter.
        self._reset_gen = 0
        self._live_cache: Optional[tuple] = None
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
        spent CPU on an epoch nobody read.  Register columns are cleared
        lazily via the touch lists, so reset is O(touched), not O(capacity).
        """
        if bank.pending:
            self.discarded_events += len(bank.pending)
            bank.pending.clear()
        bank.epoch_number = epoch_number
        bank.version += 1
        bank.mat = None
        bank.mat_version = -1
        if bank.slot_kid is not None:
            bank.slot_kid[:] = self._neg1_template  # type: ignore[index]
            bank.occupied.clear()
            bank.evicted.clear()
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
        n = self._flow_slots
        if self._neg1_template is None:
            self._neg1_template = array("q", [-1]) * n
        zeros = bytes(8 * n)
        bank.slot_kid = array("q", self._neg1_template)
        bank.slot_egress = array("q", zeros)
        bank.slot_pkt = array("q", zeros)
        bank.slot_paused = array("q", zeros)
        bank.slot_qdepth = array("q", zeros)
        bank.slot_bytes = array("q", zeros)
        bank.slot_qd_paused = array("q", zeros)
        num_ports = self._num_ports or 1
        port_zeros = bytes(8 * num_ports)
        bank.port_pkt = array("q", port_zeros)
        bank.port_paused = array("q", port_zeros)
        bank.port_qdepth = array("q", port_zeros)
        bank.port_pause_rx = array("q", port_zeros)
        bank.meter = array("q", bytes(8 * num_ports * num_ports))

    def _grow_ports(self, new_num_ports: int) -> None:
        """Grow the per-port and meter columns of every allocated bank.

        Only reachable when telemetry is driven directly (tests) with port
        numbers beyond the switch's initial port map; real switches have a
        fixed port count.  Meter entries are remapped from the old flat
        index base to the new one.
        """
        old = self._num_ports or 1
        self._num_ports = new_num_ports
        for bank in self._banks:
            if bank.port_pkt is None:
                continue
            pad = array("q", bytes(8 * (new_num_ports - len(bank.port_pkt))))
            bank.port_pkt.extend(pad)
            bank.port_paused.extend(pad)
            bank.port_qdepth.extend(pad)
            bank.port_pause_rx.extend(pad)
            new_meter = array("q", bytes(8 * new_num_ports * new_num_ports))
            new_touched = []
            for mi in bank.meter_touched:
                ingress, egress = divmod(mi, old)
                new_mi = ingress * new_num_ports + egress
                new_meter[new_mi] = bank.meter[mi]
                new_touched.append(new_mi)
            bank.meter = new_meter
            bank.meter_touched = new_touched
            bank.version += 1
        self._reset_gen += 1

    def _flush(self, bank: _EpochBank) -> None:
        """Drain the pending queue into the register columns, in order.

        Long queues take the numpy scatter-add path
        (:mod:`repro.telemetry.vectorflush`), which is bit-identical to
        the scalar loop below; short queues stay scalar (lower constant),
        and the scalar loop is also the fallback when numpy is missing.
        """
        pending = bank.pending
        if not pending:
            return
        if bank.slot_kid is None:
            self._allocate(bank)
        if (
            vectorflush.HAVE_NUMPY
            and len(pending) >= vectorflush.MIN_VECTOR_EVENTS
        ):
            vectorflush.flush_pending(self, bank)
            return
        num_ports = self._num_ports  # type: ignore[assignment]
        key_of_get = self._key_of.get
        key_of = self._key_of
        keys = self._keys
        key_slot = self._key_slot
        flow_slots = self._flow_slots
        slot_kid = bank.slot_kid
        slot_egress = bank.slot_egress
        slot_pkt = bank.slot_pkt
        slot_paused = bank.slot_paused
        slot_qdepth = bank.slot_qdepth
        slot_bytes = bank.slot_bytes
        slot_qd_paused = bank.slot_qd_paused
        occupied = bank.occupied
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
                if port >= num_ports:
                    self._grow_ports(port + 1)
                    num_ports = self._num_ports
                    port_pkt = bank.port_pkt
                    port_paused_arr = bank.port_paused
                    port_qdepth = bank.port_qdepth
                    port_pause_rx = bank.port_pause_rx
                    meter = bank.meter
                    meter_touched = bank.meter_touched
                if port_pkt[port] == 0 and port_pause_rx[port] == 0:
                    port_touched.append(port)
                port_pause_rx[port] += 1
                continue
            _, egress, ingress, qdepth, size, paused = ev
            if egress >= num_ports or (ingress is not None and ingress >= num_ports):
                self._grow_ports(max(egress, ingress if ingress is not None else 0) + 1)
                num_ports = self._num_ports
                port_pkt = bank.port_pkt
                port_paused_arr = bank.port_paused
                port_qdepth = bank.port_qdepth
                port_pause_rx = bank.port_pause_rx
                meter = bank.meter
                meter_touched = bank.meter_touched
            kid = key_of_get(flow)
            if kid is None:
                kid = len(keys)
                key_of[flow] = kid
                keys.append(flow)
                key_slot.append(flow.stable_hash() % flow_slots)
            slot = key_slot[kid]
            cur = slot_kid[slot]
            if cur != kid:
                if cur >= 0:
                    # Collision: displace the resident entry to the evicted
                    # list ("stored at the controller"), preserving order.
                    evicted.append(
                        (
                            cur,
                            slot_egress[slot],
                            slot_pkt[slot],
                            slot_paused[slot],
                            slot_qdepth[slot],
                            slot_bytes[slot],
                            slot_qd_paused[slot],
                        )
                    )
                    evictions += 1
                else:
                    occupied.append(slot)
                slot_kid[slot] = kid
                slot_egress[slot] = egress
                slot_pkt[slot] = 1
                slot_paused[slot] = paused
                slot_qdepth[slot] = qdepth
                slot_bytes[slot] = size
                slot_qd_paused[slot] = qdepth if paused else 0
            else:
                slot_pkt[slot] += 1
                slot_paused[slot] += paused
                slot_qdepth[slot] += qdepth
                slot_bytes[slot] += size
                if paused:
                    slot_qd_paused[slot] += qdepth
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

    def _live_banks(self, now_ns: int, lookback: int) -> List[_EpochBank]:
        """The most recent ``lookback`` epochs still present in the ring.

        Hardware semantics: registers are reset lazily, on the first *write*
        of a newer epoch — so an epoch that saw the last traffic before the
        network froze (e.g. a forming deadlock) stays readable indefinitely.
        The CPU reads whatever the ring holds; we return the newest
        ``lookback`` retained epochs no older than ``now``, oldest first.
        Membership is memoized until time advances or a bank is reset.
        """
        now_number = now_ns >> self._shift
        lookback = min(lookback, self._num_epochs)
        cached = self._live_cache
        if (
            cached is not None
            and cached[0] == now_number
            and cached[1] == lookback
            and cached[2] == self._reset_gen
        ):
            return cached[3]
        banks = sorted(
            (b for b in self._banks if 0 <= b.epoch_number <= now_number),
            key=lambda b: b.epoch_number,
        )
        if lookback < len(banks):
            banks = banks[len(banks) - lookback :]
        self._live_cache = (now_number, lookback, self._reset_gen, banks)
        return banks

    def _materialize(self, bank: _EpochBank) -> EpochData:
        """Build (or reuse) the :class:`EpochData` view of one bank.

        Entry order matches the reference exactly: evicted entries first in
        eviction order, then occupied slots in ascending slot index; ports
        and meters in first-touch order.
        """
        if bank.pending:
            self._flush(bank)
        if bank.mat is not None and bank.mat_version == bank.version:
            self.epoch_cache_hits += 1
            return bank.mat
        self.epoch_cache_misses += 1
        epoch = EpochData(epoch_number=bank.epoch_number)
        keys = self._keys
        flows = epoch.flows
        if bank.slot_kid is not None:
            for kid, egress, pkt, paused, qdepth, byte_count, qd_paused in bank.evicted:
                key = (keys[kid], egress)
                existing = flows.get(key)
                if existing is None:
                    flows[key] = FlowEntry(
                        key=keys[kid],
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
            occupied = sorted(bank.occupied)
            if vectorflush.HAVE_NUMPY and len(occupied) >= 32:
                # Columnar scan: seven vector gathers instead of seven
                # ``array`` subscripts per occupied slot.
                columns = zip(*vectorflush.gather_slots(bank, occupied))
            else:
                slot_kid = bank.slot_kid
                slot_egress = bank.slot_egress
                slot_pkt = bank.slot_pkt
                slot_paused = bank.slot_paused
                slot_qdepth = bank.slot_qdepth
                slot_bytes = bank.slot_bytes
                slot_qd_paused = bank.slot_qd_paused
                columns = (
                    (
                        slot_kid[slot],
                        slot_egress[slot],
                        slot_pkt[slot],
                        slot_paused[slot],
                        slot_qdepth[slot],
                        slot_bytes[slot],
                        slot_qd_paused[slot],
                    )
                    for slot in occupied
                )
            for kid, egress, pkt, paused, qdepth, byte_count, qd_paused in columns:
                key = (keys[kid], egress)
                existing = flows.get(key)
                if existing is None:
                    flows[key] = FlowEntry(
                        key=keys[kid],
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
            ports = epoch.ports
            for port in bank.port_touched:
                ports[port] = PortEntry(
                    port=port,
                    pkt_count=port_pkt[port],
                    paused_count=port_paused[port],
                    qdepth_sum_pkts=port_qdepth[port],
                    pause_rx_count=port_pause_rx[port],
                )
            meter = bank.meter
            num_ports = self._num_ports
            meters = epoch.meters
            for mi in bank.meter_touched:
                meters[divmod(mi, num_ports)] = meter[mi]
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

    # -- line-rate queries (used by the in-data-plane causality analysis) ----------

    def port_paused_num(self, port: int, now_ns: int, lookback: Optional[int] = None) -> int:
        """Paused-packet count at an egress port over recent epochs."""
        lookback = lookback if lookback is not None else self._num_epochs
        total = 0
        for bank in self._live_banks(now_ns, lookback):
            if bank.pending:
                self._flush(bank)
            arr = bank.port_paused
            if arr is not None and port < len(arr):
                total += arr[port]
        return total

    def flow_paused_num(self, key: FlowKey, now_ns: int, lookback: Optional[int] = None) -> int:
        """Paused-packet count for one flow over recent epochs (all its slots)."""
        lookback = lookback if lookback is not None else self._num_epochs
        total = 0
        for bank in self._live_banks(now_ns, lookback):
            if bank.pending:
                self._flush(bank)
        kid = self._key_of.get(key)  # interning happens at flush time
        if kid is None:
            return 0
        slot = self._key_slot[kid]
        for bank in self._live_banks(now_ns, lookback):
            if bank.slot_kid is None:
                continue
            if bank.slot_kid[slot] == kid:
                total += bank.slot_paused[slot]
            for ev in bank.evicted:
                if ev[0] == kid:
                    total += ev[3]
        return total

    def meter_volume(
        self, ingress_port: int, egress_port: int, now_ns: int, lookback: Optional[int] = None
    ) -> int:
        """Causality meter volume from ``ingress_port`` to ``egress_port``."""
        lookback = lookback if lookback is not None else self._num_epochs
        total = 0
        num_ports = self._num_ports
        for bank in self._live_banks(now_ns, lookback):
            if bank.pending:
                self._flush(bank)
                num_ports = self._num_ports
            if (
                bank.meter is not None
                and ingress_port < num_ports
                and egress_port < num_ports
            ):
                total += bank.meter[ingress_port * num_ports + egress_port]
        return total

    def port_pause_rx(self, port: int, now_ns: int, lookback: Optional[int] = None) -> int:
        """PAUSE frames received at ``port`` over recent epochs."""
        lookback = lookback if lookback is not None else self._num_epochs
        total = 0
        for bank in self._live_banks(now_ns, lookback):
            if bank.pending:
                self._flush(bank)
            arr = bank.port_pause_rx
            if arr is not None and port < len(arr):
                total += arr[port]
        return total

    def port_is_paused(self, port: int, now_ns: int) -> bool:
        return self._pause_until.get(port, 0) > now_ns

    def remaining_pause_ns(self, port: int, now_ns: int) -> int:
        return max(0, self._pause_until.get(port, 0) - now_ns)

    def port_pause_evidence(
        self, port: int, now_ns: int, lookback: Optional[int] = None
    ) -> bool:
        """Any PFC evidence at ``port``: paused enqueues, an asserted status
        register, or PAUSE frames received during the retained epochs.

        Equivalent to ``port_paused_num() > 0 or port_is_paused() or
        port_pause_rx() > 0`` but walks the live banks once.
        """
        if self._pause_until.get(port, 0) > now_ns:
            return True
        lookback = lookback if lookback is not None else self._num_epochs
        for bank in self._live_banks(now_ns, lookback):
            if bank.pending:
                self._flush(bank)
            paused = bank.port_paused
            if paused is not None and port < len(paused):
                if paused[port] > 0 or bank.port_pause_rx[port] > 0:
                    return True
        return False

    # -- collection -----------------------------------------------------------------

    def snapshot(self, now_ns: int, lookback: Optional[int] = None) -> SwitchReport:
        """Materialize the recent epochs as a report (what the CPU reads).

        Evicted flow entries were already "stored at the controller" when
        they were displaced, so they are merged back into their epoch here.
        Epoch materializations are memoized per bank version and the whole
        epoch list per ``(epoch_number, lookback, versions)``, so repeated
        reads of an idle window are O(1).
        """
        lookback = lookback if lookback is not None else self._num_epochs
        now_number = now_ns >> self._shift
        live = self._live_banks(now_ns, lookback)
        for bank in live:
            if bank.pending:
                self._flush(bank)
        snap_key = (
            now_number,
            lookback,
            tuple(bank.epoch_number for bank in live),
            tuple(bank.version for bank in live),
        )
        cached = self._snap_cache
        if cached is not None and cached[0] == snap_key:
            self.snapshot_cache_hits += 1
            epochs = cached[1]
        else:
            self.snapshot_cache_misses += 1
            epochs = [self._materialize(bank) for bank in live]
            self._snap_cache = (snap_key, epochs)
        report = SwitchReport(switch=self.switch_name, collect_time=now_ns)
        report.epochs = list(epochs)
        report.port_status = {
            port: max(0, until - now_ns) for port, until in self._pause_until.items()
        }
        return report


# Weak reference to the fabric this process attached last.
_last_attached: Optional["weakref.ref"] = None


class HawkeyeDeployment:
    """Deploys Hawkeye telemetry on (a subset of) a network's switches.

    Supports the partial-deployment discussion of §5 via ``switches``.

    Every attach path constructs one, so a run's memory lifecycle lives
    here.  A finished fabric is one reference cycle (network <-> nodes <->
    bound methods <-> pending events <-> observers) of ~16k objects pinning
    ~10 MB of register columns; the cycle collector counts objects, not
    bytes, and lets 7-10 of them pile up in a process that loops over
    scenarios.  So if the previously attached fabric is still around it is
    collected now, before the new banks are allocated; the first attach in
    a process — all a one-shot ``repro run`` does — collects nothing.
    """

    def __init__(self, network, config: Optional[TelemetryConfig] = None, switches=None):
        global _last_attached
        previous = _last_attached() if _last_attached is not None else None
        if previous is not None and previous is not network:
            del previous  # or this frame would keep it reachable
            gc.collect()
        _last_attached = weakref.ref(network)
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
        """Aggregate (hits, misses) for the snapshot/epoch caches."""
        snap_h = snap_m = epoch_h = epoch_m = 0
        for telem in self.telemetry.values():
            snap_h += telem.snapshot_cache_hits
            snap_m += telem.snapshot_cache_misses
            epoch_h += telem.epoch_cache_hits
            epoch_m += telem.epoch_cache_misses
        return {
            "telemetry_snapshot": (snap_h, snap_m),
            "telemetry_epoch_materialize": (epoch_h, epoch_m),
        }
