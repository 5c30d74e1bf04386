"""Reference queue replays that :mod:`repro.core.replay` is held to.

Two oracles, each a whole ``contribution`` with the same signature as the
production one:

- :func:`contribution_walk` walks the replayed sequence packet by packet
  and counts, for each packet, the packets ahead of it within its flow's
  look-back.  It is Algorithm 1 read literally (O(packets x depth)), so it
  defines what a weight *means*.  Its float sums run in another order
  than production, so the two agree to 1e-9, not bit for bit.
- :func:`contribution_numpy` is the numpy kernel the recorded verdicts
  were first computed with: a stable ``lexsort`` rebuilds the replay
  order, and one-hot prefix counts give the wait counts.  Production
  must match its floats bit for bit, at every replay size.

Test modules import this one after ``pytest.importorskip("numpy")``.
"""

from typing import Dict, List, Sequence, Tuple

import numpy as np

from repro.core import replay_queue
from repro.sim import FlowKey
from repro.telemetry import FlowEntry


def _replay_inputs(entries, exclude_paused):
    """The live flows, their counts and look-backs, as ``contribution``
    derives them."""
    if exclude_paused:
        counts = {e.key: e.unpaused_count for e in entries}
    else:
        counts = {e.key: e.pkt_count for e in entries}
    live = [e for e in entries if counts.get(e.key, 0) > 0]
    depth = {}
    for e in live:
        avg = e.avg_unpaused_qdepth_pkts() if exclude_paused else e.avg_qdepth_pkts()
        depth[e.key] = int(round(avg))
    pkt_num = {e.key: counts[e.key] for e in live}
    return counts, live, depth, pkt_num


def _net(entries, live, incoming, outgoing):
    if not live:
        return {e.key: 0.0 for e in entries if e.pkt_count > 0}
    result = {key: incoming[key] - outgoing[key] for key in incoming}
    for entry in entries:
        if entry.pkt_count > 0 and entry.key not in result:
            result[entry.key] = 0.0
    return result


# -- the walk ------------------------------------------------------------------


def wait_weights_walk(
    live: Sequence[FlowEntry],
    sequence: List[Tuple[int, FlowKey]],
    depth: Dict[FlowKey, int],
    pkt_num: Dict[FlowKey, int],
) -> Tuple[Dict[FlowKey, float], Dict[FlowKey, float]]:
    """Walk the replayed sequence packet by packet."""
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


def contribution_walk(entries, window_ns, exclude_paused=True):
    counts, live, depth, pkt_num = _replay_inputs(entries, exclude_paused)
    if not live:
        return _net(entries, live, {}, {})
    sequence = replay_queue(live, window_ns, counts=counts)
    incoming, outgoing = wait_weights_walk(live, sequence, depth, pkt_num)
    return _net(entries, live, incoming, outgoing)


# -- the numpy kernel ------------------------------------------------------------


def replay_ids(counts: Sequence[int], window_ns: int) -> np.ndarray:
    """Flow rank of every replayed packet, in ``replay_queue`` order.

    ``counts[f]`` is the packet count of the flow with key-sorted rank
    ``f`` (all positive).  ``lexsort`` is a stable indirect sort, last key
    primary: ``(time, order)`` with the within-flow order kept on ties.
    """
    counts_arr = np.asarray(counts, dtype=np.int64)
    n_flows = counts_arr.shape[0]
    total = int(counts_arr.sum())
    order = np.repeat(np.arange(n_flows, dtype=np.int64), counts_arr)
    starts = np.repeat(np.cumsum(counts_arr) - counts_arr, counts_arr)
    j = np.arange(total, dtype=np.int64) - starts
    times = j * window_ns // np.repeat(counts_arr, counts_arr)
    perm = np.lexsort((order, times))
    return order[perm]


def wait_weights_from_ids(
    keys: List[FlowKey],
    seq_ids: np.ndarray,
    depth: Dict[FlowKey, int],
    pkt_num: Dict[FlowKey, int],
) -> Tuple[Dict[FlowKey, float], Dict[FlowKey, float]]:
    """Prefix-count wait weights over a flow-id sequence.

    ``prefix[i, g]`` counts flow ``g`` among the first ``i`` enqueues, so
    the ``g`` packets ahead of a waiter at ``idx`` (look-back ``d``) are
    ``prefix[idx, g] - prefix[idx - d, g]``.
    """
    n_pkts = seq_ids.shape[0]
    n_flows = len(keys)
    onehot = np.zeros((n_pkts, n_flows), dtype=np.int64)
    onehot[np.arange(n_pkts), seq_ids] = 1
    prefix = np.zeros((n_pkts + 1, n_flows), dtype=np.int64)
    np.cumsum(onehot, axis=0, out=prefix[1:])

    wait = np.zeros((n_flows, n_flows), dtype=np.int64)
    for f, key in enumerate(keys):
        d = depth.get(key, 0)
        if d <= 0:
            continue
        positions = np.flatnonzero(seq_ids == f)
        starts = positions - np.minimum(d, positions)
        wait[f] = prefix[positions].sum(axis=0) - prefix[starts].sum(axis=0)

    per_pkt = np.array([pkt_num[k] for k in keys], dtype=np.float64)
    norm = wait / per_pkt[:, None]
    outgoing_arr = norm.sum(axis=1)
    incoming_arr = norm.sum(axis=0)
    incoming = {k: float(incoming_arr[i]) for i, k in enumerate(keys)}
    outgoing = {k: float(outgoing_arr[i]) for i, k in enumerate(keys)}
    return incoming, outgoing


def wait_weights_columnar(live, counts, depth, pkt_num, window_ns):
    """The numpy replay: ``live``'s telemetry order indexes the weight
    matrix, its key order decides the replay order."""
    ordering = sorted(range(len(live)), key=lambda i: live[i].key)
    ids_sorted = replay_ids([counts[live[i].key] for i in ordering], window_ns)
    seq_ids = np.asarray(ordering, dtype=np.int64)[ids_sorted]
    keys = [entry.key for entry in live]
    return wait_weights_from_ids(keys, seq_ids, depth, pkt_num)


def contribution_numpy(entries, window_ns, exclude_paused=True):
    counts, live, depth, pkt_num = _replay_inputs(entries, exclude_paused)
    if not live:
        return _net(entries, live, {}, {})
    incoming, outgoing = wait_weights_columnar(live, counts, depth, pkt_num, window_ns)
    return _net(entries, live, incoming, outgoing)
