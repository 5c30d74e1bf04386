"""Per-stage wall-clock profiling for the pipeline.

A :class:`StageProfile` accumulates wall seconds and call counts per named
pipeline stage (simulate, flush, select-reports, graph-build, diagnose,
qualify).  The runner keeps one per run and folds the result into
``PerfStats.stages`` so ``--perf-json`` carries per-stage breakdowns;
when a :class:`~repro.obs.metrics.MetricsRegistry` is attached, each stage
exit also feeds a ``stage.<name>_s`` histogram with the per-call duration.

Wall-clock numbers never enter the trace stream (they would break the
byte-identical determinism contract); they live only here and in metrics.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from typing import Any, Dict, Iterator, Optional

from .metrics import MetricsRegistry


class StageProfile:
    """Accumulates {stage: (wall seconds, calls)} with ~two clock reads/call."""

    def __init__(self, metrics: Optional[MetricsRegistry] = None) -> None:
        self._wall: Dict[str, float] = {}
        self._calls: Dict[str, int] = {}
        self.metrics = metrics

    @contextmanager
    def stage(self, name: str) -> Iterator[None]:
        t0 = time.perf_counter()
        try:
            yield
        finally:
            self.add(name, time.perf_counter() - t0)

    def add(self, name: str, wall_s: float, calls: int = 1) -> None:
        self._wall[name] = self._wall.get(name, 0.0) + wall_s
        self._calls[name] = self._calls.get(name, 0) + calls
        if self.metrics is not None:
            self.metrics.histogram(f"stage.{name}_s").observe(wall_s)

    def wall_s(self, name: str) -> float:
        return self._wall.get(name, 0.0)

    def to_dict(self) -> Dict[str, Dict[str, Any]]:
        """``PerfStats.stages`` payload: {stage: {wall_s, calls}}, sorted."""
        return {
            name: {"wall_s": self._wall[name], "calls": self._calls[name]}
            for name in sorted(self._wall)
        }


def merge_stage_dicts(
    stage_dicts: "list[Dict[str, Dict[str, Any]]]",
) -> Dict[str, Dict[str, Any]]:
    """Merge per-worker ``StageProfile.to_dict`` payloads.

    Parallel workers run stages concurrently, so the *sum* of their wall
    clocks overstates elapsed time by up to the worker count.  The merged
    entry therefore carries both: ``wall_s``/``calls`` summed (total CPU
    spent in the stage) and ``max_wall_s`` (the slowest single worker — the
    stage's contribution to the critical path).
    """
    merged: Dict[str, Dict[str, Any]] = {}
    for stages in stage_dicts:
        for name, entry in stages.items():
            slot = merged.setdefault(
                name, {"wall_s": 0.0, "calls": 0, "max_wall_s": 0.0}
            )
            wall = entry.get("wall_s", 0.0)
            slot["wall_s"] += wall
            slot["calls"] += entry.get("calls", 1)
            # Honor an upstream max (already-merged payloads) over the sum.
            slot["max_wall_s"] = max(
                slot["max_wall_s"], entry.get("max_wall_s", wall)
            )
    return {name: merged[name] for name in sorted(merged)}
