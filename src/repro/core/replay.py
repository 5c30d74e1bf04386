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

from typing import Dict, List, Optional, Sequence, Tuple

from ..sim.packet import FlowKey
from ..telemetry.records import FlowEntry
from . import columnar


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
    sequence: List[Tuple[int, int, FlowKey]] = []
    for order, entry in enumerate(sorted(entries, key=lambda e: e.key)):
        n = entry.pkt_count if counts is None else counts.get(entry.key, 0)
        if n <= 0:
            continue
        for j in range(n):
            time = j * window_ns // n
            sequence.append((time, order, entry.key))
    sequence.sort()
    return [(time, key) for time, _, key in sequence]


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
    depth: Dict[FlowKey, int] = {}
    for entry in live:
        if exclude_paused:
            avg_depth = entry.avg_unpaused_qdepth_pkts()
        else:
            avg_depth = entry.avg_qdepth_pkts()
        depth[entry.key] = int(round(avg_depth))

    pkt_num = {e.key: counts[e.key] for e in live}
    total_packets = sum(pkt_num.values())

    if columnar.columnar_enabled(total_packets):
        # Fully columnar replay: the Python (time, key) sequence is never
        # materialized; replay order is rebuilt from the count column.
        incoming, outgoing = columnar.wait_weights_columnar(
            live, counts, depth, pkt_num, window_ns
        )
    else:
        sequence = replay_queue(live, window_ns, counts=counts)
        incoming, outgoing = _wait_weights_python(live, sequence, depth, pkt_num)

    result = {key: incoming[key] - outgoing[key] for key in incoming}
    for entry in entries:
        if entry.pkt_count > 0 and entry.key not in result:
            result[entry.key] = 0.0  # fully paused: no contention evidence
    return result


def _wait_weights_python(
    live: Sequence[FlowEntry],
    sequence: List[Tuple[int, FlowKey]],
    depth: Dict[FlowKey, int],
    pkt_num: Dict[FlowKey, int],
) -> Tuple[Dict[FlowKey, float], Dict[FlowKey, float]]:
    """Reference implementation: walk the replayed sequence packet by packet."""
    # W[f_i][f_j]: total f_j packets found ahead of f_i packets.
    wait_counts: Dict[FlowKey, Dict[FlowKey, int]] = {e.key: {} for e in live}
    history: List[FlowKey] = []
    for idx, (_, key) in enumerate(sequence):
        d = min(depth.get(key, 0), idx)
        if d > 0:
            row = wait_counts[key]
            for other in history[idx - d : idx]:
                row[other] = row.get(other, 0) + 1
        history.append(key)

    # Normalize to per-packet averages.
    incoming: Dict[FlowKey, float] = {e.key: 0.0 for e in live}
    outgoing: Dict[FlowKey, float] = {e.key: 0.0 for e in live}
    for waiter, row in wait_counts.items():
        n = pkt_num[waiter]
        for waited_on, count in row.items():
            w = count / n
            outgoing[waiter] += w
            incoming[waited_on] += w
    return incoming, outgoing
