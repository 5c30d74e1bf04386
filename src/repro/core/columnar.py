"""Columnar analysis-plane kernels: flat numpy tables for queue replay.

The provenance builder's dominant cost at fleet scale is Algorithm 1's
queue replay (:mod:`repro.core.replay`): for every (epoch, egress port)
the scalar path materializes one Python tuple per replayed packet, sorts
the merged list, and walks it.  At K=16 that is hundreds of thousands of
tuple allocations per cold graph build.

This module rebuilds the replay over flat int64 columns:

- the synthetic enqueue times of one flow are the arithmetic sequence
  ``j * window_ns // n`` — computed for *all* flows at once from a
  per-flow packet-count column (``repeat``/``arange`` index algebra, no
  per-packet Python);
- the scalar merge ``sequence.sort()`` on ``(time, order, key)`` tuples
  is reproduced exactly by a stable ``np.lexsort((order, time))``: the
  ``order`` column is the flow's rank in the key-sorted flow list, so
  ``key`` can never act as a tie-breaker (equal order implies equal key),
  and lexsort's stability preserves the within-flow ``j`` order on full
  ties just as Python's stable sort does;
- the pairwise wait-for weights then come from the same prefix-count
  formulation the vectorized path has always used
  (:func:`wait_weights_from_ids`), so the floats are bit-identical.

Gating follows ``repro.telemetry.vectorflush``: tiny sequences stay on
the scalar walk because the numpy setup cost outweighs the win, and
that walk is the reference the tests hold this module to.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Dict, Iterator, List, Sequence, Tuple

import numpy as _np

# Below this many replayed packets the scalar walk wins (same knee as the
# original vectorization threshold in repro.core.replay).
MIN_COLUMNAR_PACKETS = 64

# Test knob: force the scalar walk at any size, so scalar-vs-columnar
# differentials can run both sides in one process.
_FORCE_SCALAR = False


@contextmanager
def force_scalar() -> Iterator[None]:
    """Run the block on the pure-Python analysis path (numpy untouched)."""
    global _FORCE_SCALAR
    previous = _FORCE_SCALAR
    _FORCE_SCALAR = True
    try:
        yield
    finally:
        _FORCE_SCALAR = previous


def columnar_enabled(total_packets: int) -> bool:
    """Should this replay run on the columnar path?"""
    return not _FORCE_SCALAR and total_packets >= MIN_COLUMNAR_PACKETS


def replay_ids(counts: Sequence[int], window_ns: int) -> "_np.ndarray":
    """Vectorized ReplayQueue: flow index of every packet in replay order.

    ``counts[f]`` is the packet count of the flow with *key-sorted* rank
    ``f`` (all positive).  Returns an int64 array of length
    ``sum(counts)`` holding each replayed packet's flow rank, ordered
    exactly as the scalar ``replay_queue``'s ``(time, order)`` sort.
    """
    counts_arr = _np.asarray(counts, dtype=_np.int64)
    n_flows = counts_arr.shape[0]
    total = int(counts_arr.sum())
    order = _np.repeat(_np.arange(n_flows, dtype=_np.int64), counts_arr)
    # Within-flow packet index j: position minus the flow's start offset.
    starts = _np.repeat(_np.cumsum(counts_arr) - counts_arr, counts_arr)
    j = _np.arange(total, dtype=_np.int64) - starts
    times = j * window_ns // _np.repeat(counts_arr, counts_arr)
    # lexsort is an indirect *stable* sort, last key primary: (time, order)
    # with original j-order preserved on full ties — the scalar sort exactly.
    perm = _np.lexsort((order, times))
    return order[perm]


def wait_weights_from_ids(
    keys: List,
    seq_ids: "_np.ndarray",
    depth: Dict,
    pkt_num: Dict,
) -> Tuple[Dict, Dict]:
    """Prefix-count wait weights over a flow-id sequence.

    The single implementation of the vectorized pairwise walk: with
    ``prefix[i, g]`` = packets of flow ``g`` among the first ``i``
    enqueues, the packets of ``g`` ahead of a waiter at position ``idx``
    (look-back ``d``) are ``prefix[idx, g] - prefix[idx - d, g]``; summing
    over one flow's packet positions yields its whole wait-count row at
    once.  Counts are exact integers — only the float normalization order
    differs from the scalar reference walk.
    """
    n_pkts = seq_ids.shape[0]
    n_flows = len(keys)
    onehot = _np.zeros((n_pkts, n_flows), dtype=_np.int64)
    onehot[_np.arange(n_pkts), seq_ids] = 1
    prefix = _np.zeros((n_pkts + 1, n_flows), dtype=_np.int64)
    _np.cumsum(onehot, axis=0, out=prefix[1:])

    wait = _np.zeros((n_flows, n_flows), dtype=_np.int64)
    for f, key in enumerate(keys):
        d = depth.get(key, 0)
        if d <= 0:
            continue
        positions = _np.flatnonzero(seq_ids == f)
        starts = positions - _np.minimum(d, positions)
        wait[f] = prefix[positions].sum(axis=0) - prefix[starts].sum(axis=0)

    per_pkt = _np.array([pkt_num[k] for k in keys], dtype=_np.float64)
    norm = wait / per_pkt[:, None]
    outgoing_arr = norm.sum(axis=1)
    incoming_arr = norm.sum(axis=0)
    incoming = {k: float(incoming_arr[i]) for i, k in enumerate(keys)}
    outgoing = {k: float(outgoing_arr[i]) for i, k in enumerate(keys)}
    return incoming, outgoing


def wait_weights_columnar(
    live: Sequence,
    counts: Dict,
    depth: Dict,
    pkt_num: Dict,
    window_ns: int,
) -> Tuple[Dict, Dict]:
    """The full columnar replay: no Python packet sequence is ever built.

    ``live`` is the port's flow-entry list in telemetry order (the order
    the result dicts must carry); replay ordering uses the key-sorted flow
    ranks, exactly like the scalar ``replay_queue``.
    """
    ordering = sorted(range(len(live)), key=lambda i: live[i].key)
    counts_sorted = [counts[live[i].key] for i in ordering]
    ids_sorted = replay_ids(counts_sorted, window_ns)
    # Map key-sorted ranks back to telemetry-order flow indices so the
    # weight matrix rows line up with ``keys`` (= live order), matching
    # the legacy vectorized path bit for bit.
    to_live = _np.asarray(ordering, dtype=_np.int64)
    seq_ids = to_live[ids_sorted]
    keys = [entry.key for entry in live]
    return wait_weights_from_ids(keys, seq_ids, depth, pkt_num)
