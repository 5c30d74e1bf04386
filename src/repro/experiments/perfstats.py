"""Performance accounting for scenario runs.

Every :func:`repro.experiments.run_scenario` call times the simulation and
snapshots the engine's event-loop counters into a :class:`PerfStats`
record: events executed, events per wall-clock second, peak event-queue
depth, purged (cancelled) entries and compaction sweeps.  The benchmark
suite aggregates these into ``BENCH_perf.json`` so optimization work has
a before/after paper trail.
"""

from __future__ import annotations

import json
import os
import platform
import sys
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Any, Dict, Optional, Tuple, Union

BENCH_PERF_FILENAME = "BENCH_perf.json"


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
    # Covers the process-global caches (pause quanta, report aggregation,
    # replay contribution) scoped to this run by before/after differencing,
    # plus the per-run instance caches (ECMP select, telemetry
    # snapshot/epoch materialization).
    caches: Dict[str, Dict[str, int]] = field(default_factory=dict)
    # Fault-injection and reliability counters (chaos runs): incident kind
    # or recovery action -> count.  Empty on fault-free runs.
    faults: Dict[str, int] = field(default_factory=dict)
    # Per-stage wall-clock breakdown from the runner's StageProfile:
    # stage name -> {"wall_s": float, "calls": int}.  Stages cover the whole
    # pipeline (simulate, flush_pending, select_reports, graph_build,
    # diagnose, qualify), so BENCH_perf.json can show where time goes.
    stages: Dict[str, Dict[str, Any]] = field(default_factory=dict)
    # Sharded execution (``repro.experiments.shardrun``): worker count,
    # barrier accounting, and the aggregate event rate — total events
    # divided by the *slowest* shard's busy CPU seconds, i.e. the rate
    # the fabric achieves with one core per shard (CPU time so that
    # core-starved CI machines don't charge a shard for its siblings'
    # scheduler slices).  All zero on single-process runs.
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

    def to_dict(self) -> Dict[str, Any]:
        return asdict(self)

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "PerfStats":
        return cls(**{k: data[k] for k in cls.__dataclass_fields__ if k in data})


def global_cache_counters() -> Dict[str, Tuple[int, int]]:
    """Current (hits, misses) of every process-global memoization cache.

    Runs scope these to themselves by snapshotting before and differencing
    after (see :func:`diff_cache_counters`) — the caches survive across
    runs in one process, so absolute values mix scenarios.
    """
    from ..core.build import CONTRIB_CACHE_STATS
    from ..sim.packet import PAUSE_NS_CACHE_STATS
    from ..telemetry.snapshot import AGG_CACHE_STATS

    return {
        "pause_quanta": (PAUSE_NS_CACHE_STATS[0], PAUSE_NS_CACHE_STATS[1]),
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


def environment_info() -> Dict[str, Any]:
    """The platform facts a perf number is meaningless without."""
    return {
        "python": sys.version.split()[0],
        "implementation": platform.python_implementation(),
        "machine": platform.machine(),
        "system": platform.system(),
        "cpu_count": os.cpu_count() or 1,
    }


def write_bench_json(
    path: Union[str, Path],
    payload: Dict[str, Any],
    environment_extra: Optional[Dict[str, Any]] = None,
) -> Path:
    """Write a benchmark payload (adds environment metadata); returns path.

    ``environment_extra`` merges run-shape facts (e.g. the shard count a
    fleet-scale gate ran with) into the environment block, next to the
    host's ``cpu_count``.  Extras already present in ``payload``'s
    environment survive the rewrite (platform facts are refreshed), so
    benchmark files can each contribute keys regardless of write order.
    """
    path = Path(path)
    environment = dict(payload.pop("environment", None) or {})
    environment.update(environment_info())
    if environment_extra:
        environment.update(environment_extra)
    document = {"environment": environment, **payload}
    path.write_text(json.dumps(document, indent=2, sort_keys=False) + "\n")
    return path


def load_bench_json(path: Union[str, Path]) -> Optional[Dict[str, Any]]:
    """Read a benchmark payload; ``None`` if absent or unparsable."""
    path = Path(path)
    if not path.exists():
        return None
    try:
        return json.loads(path.read_text())
    except (OSError, json.JSONDecodeError):
        return None
