"""Per-stage wall-clock profiling for the pipeline.

A :class:`StageProfile` times named pipeline stages (simulate, flush,
select-reports, graph-build, diagnose, qualify) into its
:class:`~repro.obs.metrics.MetricsRegistry`: each stage exit observes one
``stage.<name>_s`` histogram with the call's duration.  The histograms are
the only store; :meth:`StageProfile.to_dict` reads ``PerfStats.stages``
from them.

Wall-clock numbers never enter the trace stream (they would break the
byte-identical determinism contract); they live only in metrics.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from typing import Any, Dict, Iterator, Optional

from .metrics import MetricsRegistry

_PREFIX, _SUFFIX = "stage.", "_s"


class StageProfile:
    """Times stages into ``stage.<name>_s`` histograms, two clock reads
    per call."""

    def __init__(self, metrics: Optional[MetricsRegistry] = None) -> None:
        self.metrics = metrics if metrics is not None else MetricsRegistry()

    @contextmanager
    def stage(self, name: str) -> Iterator[None]:
        t0 = time.perf_counter()
        try:
            yield
        finally:
            self.metrics.histogram(f"{_PREFIX}{name}{_SUFFIX}").observe(
                time.perf_counter() - t0
            )

    def to_dict(self) -> Dict[str, Dict[str, Any]]:
        """``PerfStats.stages`` payload: {stage: {wall_s, calls}}, sorted."""
        stages = {
            name[len(_PREFIX):-len(_SUFFIX)]: {
                "wall_s": histogram.total, "calls": histogram.count
            }
            for name, histogram in self.metrics.histograms(_PREFIX).items()
        }
        return dict(sorted(stages.items()))


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
