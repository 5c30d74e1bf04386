"""numpy-vectorized register flush for Hawkeye telemetry.

:meth:`HawkeyeSwitchTelemetry._flush` drains an epoch's pending event
queue into the bank's flow-table dict and its flat ``array('q')`` port
and meter columns.  The scalar loop costs ~15 Python bytecode dispatches
per packet; at fleet scale (K=16 fat-trees, hundreds of switches) the
flush dominates telemetry CPU.  This module replaces it with numpy
scatter-adds over zero-copy views of the port and meter columns and one
table update per run of a key — results are **bit-identical** to the
scalar path, eviction order and first-touch orders included:

- per-port counters and the causality meters are plain commutative
  scatter-adds (``np.add.at``), so event order is irrelevant;
- first-touch orders (``port_touched``/``meter_touched``) depend only on
  the *first* event index per register with a zero pre-flush value —
  recovered via ``np.unique(..., return_index=True)``;
- the flow table is order-sensitive only where the *resident key of a
  slot changes* (install/evict).  Consecutive events of one key on one
  slot — the overwhelming majority under any real traffic — form a run
  whose counter contributions commute.  Runs are found vectorially
  (stable sort by slot, boundaries where slot or key changes), summed
  with ``np.add.at`` keyed by run id, and only the run *starts* are
  replayed through the scalar install/evict logic in ascending event
  order, which reproduces the eviction list byte-for-byte.

Queues shorter than ``MIN_VECTOR_EVENTS`` keep the pure-Python loop.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, List

import numpy as _np

if TYPE_CHECKING:  # pragma: no cover
    from .hawkeye import HawkeyeSwitchTelemetry, _EpochBank

# Below this many pending events the scalar loop wins: the vector path
# pays ~25 numpy-call overheads regardless of queue length.
MIN_VECTOR_EVENTS = 192


def _view(column) -> "_np.ndarray":
    """Writable int64 view over an ``array('q')`` column (zero copy)."""
    return _np.frombuffer(column, dtype=_np.int64)


def flush_pending(telem: "HawkeyeSwitchTelemetry", bank: "_EpochBank") -> None:
    """Vectorized equivalent of the scalar ``_flush`` body.

    The caller guarantees ``bank.pending`` is non-empty and the bank's
    port and meter columns are allocated.  Counter updates, touch lists,
    interning and eviction bookkeeping all land exactly as the scalar
    loop would leave them.
    """
    pending = bank.pending
    data: List[tuple] = []
    pause_ports: List[int] = []
    for ev in pending:
        if ev[0] is None:
            pause_ports.append(ev[1])
        else:
            data.append(ev)

    # Grow the port space once, up front, if any event references a port
    # beyond the current map.  The scalar path grows mid-stream at the
    # offending event; growing earlier is state-identical (growth only
    # pads and remaps, it never drops), and lets every scatter below
    # target the final geometry.
    max_port = -1
    if pause_ports:
        max_port = max(pause_ports)
    for ev in data:
        if ev[1] > max_port:
            max_port = ev[1]
        if ev[2] is not None and ev[2] > max_port:
            max_port = ev[2]
    if max_port >= telem._num_ports:
        telem._grow_ports(max_port + 1)
    num_ports = telem._num_ports

    port_pkt = _view(bank.port_pkt)
    port_paused = _view(bank.port_paused)
    port_qdepth = _view(bank.port_qdepth)
    port_pause_rx = _view(bank.port_pause_rx)
    meter = _view(bank.meter)

    # Pre-flush zero-ness decides first-touch membership for both lists.
    port_pre_zero = (port_pkt + port_pause_rx) == 0
    meter_pre_zero = meter == 0

    # -- per-port counters (commutative scatter-adds) -----------------------
    touch_ports: List["_np.ndarray"] = []
    touch_index: List["_np.ndarray"] = []
    if data:
        egress = _np.fromiter((ev[1] for ev in data), _np.int64, len(data))
        paused = _np.fromiter((ev[5] for ev in data), _np.int64, len(data))
        qdepth = _np.fromiter((ev[3] for ev in data), _np.int64, len(data))
        size = _np.fromiter((ev[4] for ev in data), _np.int64, len(data))
        _np.add.at(port_pkt, egress, 1)
        _np.add.at(port_paused, egress, paused)
        _np.add.at(port_qdepth, egress, qdepth)
    if pause_ports:
        rx = _np.asarray(pause_ports, dtype=_np.int64)
        _np.add.at(port_pause_rx, rx, 1)

    # First-touch order: first event index per port across data and PAUSE
    # events in original queue order.  Event index within ``pending``
    # (not within ``data``) preserves the interleaving.
    if data or pause_ports:
        all_ports = _np.fromiter(
            (ev[1] for ev in pending), _np.int64, len(pending)
        )
        uniq, first = _np.unique(all_ports, return_index=True)
        fresh = port_pre_zero[uniq]
        order = _np.argsort(first[fresh], kind="stable")
        bank.port_touched.extend(int(p) for p in uniq[fresh][order])

    # -- causality meters ---------------------------------------------------
    if data:
        has_ingress = _np.fromiter(
            (ev[2] is not None for ev in data), _np.bool_, len(data)
        )
        if has_ingress.any():
            ingress = _np.fromiter(
                (ev[2] if ev[2] is not None else 0 for ev in data),
                _np.int64,
                len(data),
            )
            mi = (ingress * num_ports + egress)[has_ingress]
            _np.add.at(meter, mi, size[has_ingress])
            uniq_mi, first_mi = _np.unique(mi, return_index=True)
            fresh_mi = meter_pre_zero[uniq_mi]
            order_mi = _np.argsort(first_mi[fresh_mi], kind="stable")
            bank.meter_touched.extend(int(m) for m in uniq_mi[fresh_mi][order_mi])

    # -- flow table: run decomposition --------------------------------------
    if data:
        key_of = telem._key_of
        key_of_get = key_of.get
        keys = telem._keys
        key_slot = telem._key_slot
        flow_slots = telem._flow_slots
        kid_list: List[int] = []
        for ev in data:
            flow = ev[0]
            kid = key_of_get(flow)
            if kid is None:
                kid = len(keys)
                key_of[flow] = kid
                keys.append(flow)
                key_slot.append(flow.stable_hash() % flow_slots)
            kid_list.append(kid)
        kid_arr = _np.asarray(kid_list, dtype=_np.int64)
        slot_arr = _np.fromiter(
            (key_slot[k] for k in kid_list), _np.int64, len(kid_list)
        )
        qd_paused = qdepth * paused

        by_slot = _np.argsort(slot_arr, kind="stable")
        s_sorted = slot_arr[by_slot]
        k_sorted = kid_arr[by_slot]
        new_run = _np.empty(len(by_slot), dtype=_np.bool_)
        new_run[0] = True
        new_run[1:] = (s_sorted[1:] != s_sorted[:-1]) | (
            k_sorted[1:] != k_sorted[:-1]
        )
        run_id = _np.cumsum(new_run) - 1
        n_runs = int(run_id[-1]) + 1

        run_pkt = _np.bincount(run_id, minlength=n_runs)
        run_paused = _np.zeros(n_runs, dtype=_np.int64)
        run_qdepth = _np.zeros(n_runs, dtype=_np.int64)
        run_bytes = _np.zeros(n_runs, dtype=_np.int64)
        run_qd_paused = _np.zeros(n_runs, dtype=_np.int64)
        _np.add.at(run_paused, run_id, paused[by_slot])
        _np.add.at(run_qdepth, run_id, qdepth[by_slot])
        _np.add.at(run_bytes, run_id, size[by_slot])
        _np.add.at(run_qd_paused, run_id, qd_paused[by_slot])

        starts = _np.flatnonzero(new_run)
        run_start_event = by_slot[starts]  # index into ``data``
        # Install/evict at run starts, replayed in true event order: this
        # is the only order-sensitive residue, and runs are few.
        replay = _np.argsort(run_start_event, kind="stable")
        runs = zip(
            *(
                column[replay].tolist()
                for column in (
                    s_sorted[starts],
                    k_sorted[starts],
                    egress[run_start_event],
                    run_pkt,
                    run_paused,
                    run_qdepth,
                    run_bytes,
                    run_qd_paused,
                )
            )
        )
        table = bank.table
        table_get = table.get
        evicted = bank.evicted
        evictions = 0
        for s, k, eg, pkt, pa, qd, by, qp in runs:
            entry = table_get(s)
            if entry is None or entry[0] != k:
                if entry is not None:
                    evicted.append(entry)
                    evictions += 1
                table[s] = [k, eg, pkt, pa, qd, by, qp]
            else:
                entry[2] += pkt
                entry[3] += pa
                entry[4] += qd
                entry[5] += by
                entry[6] += qp
        telem.evictions_flushed += evictions

    telem.flushed_events += len(pending)
    pending.clear()
    bank.version += 1
