"""Performance accounting for scenario runs.

Every :func:`repro.experiments.run_scenario` call times the simulation and
snapshots the engine's event-loop counters into a :class:`PerfStats`
record: events executed, events per wall-clock second, peak event-queue
depth, purged (cancelled) entries and compaction sweeps.  It is the
in-process record the wall-clock benchmark under ``bench/`` reads, built
once per run by ``account_run`` from the same numbers it writes into the
run's metrics registry, which ``--metrics-json`` exports: a snapshot,
not a second counter.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Tuple


@dataclass
class PerfStats:
    """Wall-clock and event-loop statistics for one scenario run."""

    scenario: str
    wall_s: float
    events_run: int
    events_per_sec: float
    peak_pending_events: int
    events_purged: int = 0
    compactions: int = 0
    # Memoization-cache effectiveness: cache name -> {"hits": N, "misses": N}.
    # Covers the process-global caches (report aggregation, replay
    # contribution) scoped to this run by before/after differencing, plus
    # the per-run telemetry caches (snapshot, epoch materialization) and
    # the epoch misses split (shared, rebuilt) as ``telemetry_epoch_share``.
    caches: Dict[str, Dict[str, int]] = field(default_factory=dict)
    # Per-stage wall-clock breakdown, ``MetricsRegistry.stages()``:
    # stage name -> {"wall_s": float, "calls": int} for simulate,
    # flush_pending, select_reports, graph_build, diagnose and qualify; a
    # sharded run adds ``shard_run``/``shard_transport`` with ``max_wall_s``.
    stages: Dict[str, Dict[str, Any]] = field(default_factory=dict)
    # Sharded execution (``repro.experiments.shardrun``): worker count,
    # barrier accounting, and the aggregate event rate — total events
    # divided by the *slowest* shard's busy CPU seconds, i.e. the rate
    # the fabric achieves with one core per shard (CPU time so that
    # core-starved CI machines don't charge a shard for its siblings'
    # scheduler slices).  All zero on single-process runs; a sharded run
    # also writes them as the ``shard.*`` metrics.
    shards: int = 0
    barrier_epochs: int = 0
    barrier_stall_s: float = 0.0
    aggregate_events_per_sec: float = 0.0
    # Cross-shard frame traffic (sharded runs only): ``{"pipe_frames": N}``,
    # the frames the barrier pipes carried.  Empty on single-process runs.
    transport: Dict[str, Any] = field(default_factory=dict)
    # What ``run_scenario_sharded`` decided: ``{"timeout_s": ...}`` for a
    # sharded run, plus ``fallback_ran`` / ``lost_shards`` / ``failure`` /
    # ``failure_kind`` when a lost worker made it rerun serially; or
    # ``{"serial_reason": ...}`` when the config never went to the shard
    # engine.  Empty on plain ``run_scenario`` runs.
    supervision: Dict[str, Any] = field(default_factory=dict)


def global_cache_counters() -> Dict[str, Tuple[int, int]]:
    """Current (hits, misses) of every process-global memoization cache.

    Runs scope these to themselves by snapshotting before and differencing
    after (see :func:`diff_cache_counters`) — the caches survive across
    runs in one process, so absolute values mix scenarios.
    """
    from ..core.build import CONTRIB_CACHE_STATS
    from ..telemetry.snapshot import AGG_CACHE_STATS

    return {
        "report_agg": (AGG_CACHE_STATS[0], AGG_CACHE_STATS[1]),
        "replay_contribution": (CONTRIB_CACHE_STATS[0], CONTRIB_CACHE_STATS[1]),
    }


def diff_cache_counters(
    before: Dict[str, Tuple[int, int]], after: Dict[str, Tuple[int, int]]
) -> Dict[str, Dict[str, int]]:
    """Per-cache hit/miss deltas between two counter snapshots."""
    out: Dict[str, Dict[str, int]] = {}
    for name, (hits, misses) in after.items():
        h0, m0 = before.get(name, (0, 0))
        out[name] = {"hits": hits - h0, "misses": misses - m0}
    return out
