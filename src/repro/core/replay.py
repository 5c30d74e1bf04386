"""Queue replay and per-flow contention contribution (Algorithm 1, lines 21-37).

The data plane cannot afford per-packet logs, so it records only per-flow
packet counts and average queue depths.  ``ReplayQueue`` reconstructs an
approximate enqueue sequence by spacing each flow's packets uniformly over
the telemetry window and interleaving the flows; ``Contribution`` then
derives the pairwise wait-for weights:

- ``w(f_i -> f_j)``: the average number of ``f_j`` packets sitting ahead of
  an ``f_i`` packet at its enqueue (``f_i`` waits for ``f_j``);
- ``contribution(f) = sum_i w(f_i -> f) - sum_k w(f -> f_k)`` — flows with
  positive contribution are contention *contributors*, negative ones are
  *victims* (§3.5.1).

PFC-paused packets are excluded (the paper's "the port-flow edge
construction excludes the paused packets in queues"): packets that enqueued
while the port was paused are evidence of PFC buildup, not of local flow
contention, so the replay considers only each flow's non-paused packets —
both as waiters and as waited-on queue content — using the queue depths
those non-paused enqueues actually observed.
"""

from __future__ import annotations

from itertools import accumulate
from typing import Dict, List, Optional, Sequence, Tuple

from ..sim.packet import FlowKey
from ..telemetry.records import FlowEntry


def _replay_order(
    entries: Sequence[FlowEntry], window_ns: int, counts: Dict[FlowKey, int]
) -> Tuple[List[int], List[int]]:
    """ReplayQueue's merge, as ``(ranked, slots)``.

    ``ranked`` holds the indices into ``entries`` of the flows with packets,
    in key order.  Each slot is one replayed packet, encoded as
    ``time * len(ranked) + rank``; sorting the slots sorts by synthetic
    enqueue time with ties broken by flow order, and every flow is already
    a sorted run, so the sort is a merge.
    """
    ranked = sorted(
        (i for i, e in enumerate(entries) if counts.get(e.key, 0) > 0),
        key=lambda i: entries[i].key,
    )
    width = len(ranked)
    slots: List[int] = []
    for rank, i in enumerate(ranked):
        n = counts[entries[i].key]
        slots.extend(j * window_ns // n * width + rank for j in range(n))
    slots.sort()
    return ranked, slots


def replay_queue(
    entries: Sequence[FlowEntry],
    window_ns: int,
    counts: Optional[Dict[FlowKey, int]] = None,
) -> List[Tuple[int, FlowKey]]:
    """Reconstruct an approximate enqueue sequence for one egress port.

    Each flow's packets (``pkt_count`` by default, or ``counts[key]`` when
    given) are spaced uniformly across the window; the merged sequence is
    sorted by synthetic enqueue time (ties broken by flow order for
    determinism).
    """
    if counts is None:
        counts = {e.key: e.pkt_count for e in entries}
    ranked, slots = _replay_order(entries, window_ns, counts)
    width = len(ranked)
    keys = [entries[i].key for i in ranked]
    return [(slot // width, keys[slot % width]) for slot in slots]


def contribution(
    entries: Sequence[FlowEntry],
    window_ns: int,
    exclude_paused: bool = True,
) -> Dict[FlowKey, float]:
    """Net contention contribution per flow at one egress port.

    ``exclude_paused`` applies the paused-packet exclusion described above;
    disabling it reproduces the naive estimator (used as an ablation).
    """
    if exclude_paused:
        counts = {e.key: e.unpaused_count for e in entries}
    else:
        counts = {e.key: e.pkt_count for e in entries}
    live = [e for e in entries if counts.get(e.key, 0) > 0]
    if not live:
        # Everything here enqueued during pauses: no local contention at all.
        return {e.key: 0.0 for e in entries if e.pkt_count > 0}

    # Queue depth each flow's contention-relevant packets observed.
    depth: List[int] = []
    for entry in live:
        if exclude_paused:
            avg_depth = entry.avg_unpaused_qdepth_pkts()
        else:
            avg_depth = entry.avg_qdepth_pkts()
        depth.append(int(round(avg_depth)))

    ranked, slots = _replay_order(live, window_ns, counts)
    width = len(ranked)
    ids = [ranked[slot % width] for slot in slots]  # index into ``live``
    pkt_num = [counts[e.key] for e in live]
    incoming, outgoing = _wait_weights(ids, depth, pkt_num)

    result = {e.key: incoming[f] - outgoing[f] for f, e in enumerate(live)}
    for entry in entries:
        if entry.pkt_count > 0 and entry.key not in result:
            result[entry.key] = 0.0  # fully paused: no contention evidence
    return result


def _wait_weights(
    ids: Sequence[int], depth: Sequence[int], pkt_num: Sequence[int]
) -> Tuple[List[float], List[float]]:
    """Incoming and outgoing wait-for weight of every flow.

    ``ids`` is the replayed sequence (one flow index per packet) and
    ``depth[f]`` the look-back of flow ``f``'s packets.  ``prefix[i]``
    counts the packets of every flow among the first ``i`` replayed at
    once: flow ``g``'s count is bit field ``g`` of one int, ``bits`` wide.
    The ``g`` packets ahead of a waiter at position ``i`` are field ``g``
    of ``prefix[i] - prefix[i - d]``, and summed over one flow's positions
    the fields are its whole row of exact integer wait counts.  No field
    can carry or borrow: each stays below ``len(ids) ** 2``, and every
    window's count is non-negative.

    Each count is divided by the waiter's packet count; a flow's outgoing
    weight is its row's sum and its incoming weight its column's sum.
    Both sums keep the float order the recorded verdicts were computed in
    (rows pairwise, columns row by row), because a printed ``w=`` can turn
    on a weight's last bit.
    """
    flows = range(len(pkt_num))
    bits = (len(ids) ** 2).bit_length()
    mask = (1 << bits) - 1
    unit = [1 << (bits * g) for g in flows]
    prefix = list(accumulate(map(unit.__getitem__, ids), initial=0))
    positions: List[List[int]] = [[] for _ in flows]
    for i, g in enumerate(ids):
        positions[g].append(i)
    rows: List[List[float]] = []
    for f in flows:
        d = depth[f]
        if d <= 0:
            rows.append([0.0] * len(pkt_num))
            continue
        starts = [i - d if i > d else 0 for i in positions[f]]
        packed = sum(map(prefix.__getitem__, positions[f])) - sum(
            map(prefix.__getitem__, starts)
        )
        n = pkt_num[f]
        rows.append([((packed >> (bits * g)) & mask) / n for g in flows])
    return _column_sums(rows), [_pairwise_sum(row) for row in rows]


def _column_sums(rows: Sequence[Sequence[float]]) -> List[float]:
    """Column sums of a square matrix, adding the rows in order."""
    sums = [0.0] * len(rows)
    for row in rows:
        for g, w in enumerate(row):
            sums[g] += w
    return sums


def _pairwise_sum(values: Sequence[float]) -> float:
    """Pairwise float sum.

    Under 8 values the sum is sequential.  Up to 128, eight running sums
    take every eighth value, are added as a balanced tree, and the
    remainder is added in order.  Longer runs split in two at a multiple
    of 8 and recurse.
    """
    n = len(values)
    if n < 8:
        total = 0.0
        for value in values:
            total += value
        return total
    if n <= 128:
        r = list(values[:8])
        whole = n - n % 8
        for i in range(8, whole, 8):
            for j in range(8):
                r[j] += values[i + j]
        total = ((r[0] + r[1]) + (r[2] + r[3])) + ((r[4] + r[5]) + (r[6] + r[7]))
        for value in values[whole:]:
            total += value
        return total
    half = n // 2
    half -= half % 8
    return _pairwise_sum(values[:half]) + _pairwise_sum(values[half:])
