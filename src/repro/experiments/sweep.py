"""Parameter-sweep utilities: grid runs, accuracy aggregation, CSV export.

The benchmarks use these helpers implicitly through their own loops; this
module packages the same machinery for interactive use and the CLI's
``sweep`` subcommand: build a grid over (scenario × epoch × threshold ×
system × seeds), run it, and tabulate precision/recall per cell.
"""

from __future__ import annotations

import csv
import itertools
from dataclasses import dataclass, field
from typing import Callable, Dict, IO, Iterable, List, Optional, Sequence, Tuple

from ..baselines.systems import SystemKind
from ..monitor.monitor import MonitorConfig
from ..workloads.scenario import Scenario
from .metrics import AccuracyCounter, ScoreConfig
from .runner import RunConfig, run_scenario
from .supervise import fork_map

ScenarioBuilder = Callable[..., Scenario]


@dataclass(frozen=True)
class SweepPoint:
    """One grid cell of the parameter sweep."""

    scenario: str
    system: SystemKind = SystemKind.HAWKEYE
    epoch_size_ns: int = 1 << 20
    threshold: float = 3.0
    # Frozen (hence picklable) monitor knobs; each pool worker builds its
    # own FabricMonitor from them, exactly like RunConfig.obs.
    monitor: Optional[MonitorConfig] = None

    def run_config(self) -> RunConfig:
        return RunConfig(
            system=self.system,
            epoch_size_ns=self.epoch_size_ns,
            threshold_multiplier=self.threshold,
            monitor=self.monitor,
        )


@dataclass
class SweepResult:
    point: SweepPoint
    accuracy: AccuracyCounter
    processing_bytes: int = 0
    bandwidth_bytes: int = 0
    # Per-stage wall seconds summed over the cell's seeds (from each run's
    # StageProfile via PerfStats.stages): where this grid cell spent time.
    stage_wall_s: Dict[str, float] = field(default_factory=dict)

    def row(self) -> Tuple:
        return (
            self.point.scenario,
            self.point.system.value,
            self.point.epoch_size_ns,
            f"{self.point.threshold:.1f}",
            f"{self.accuracy.precision:.3f}",
            f"{self.accuracy.recall:.3f}",
            self.processing_bytes,
            self.bandwidth_bytes,
        )


CSV_HEADER = (
    "scenario",
    "system",
    "epoch_ns",
    "threshold",
    "precision",
    "recall",
    "processing_bytes",
    "bandwidth_bytes",
)


def grid(
    scenarios: Sequence[str],
    systems: Sequence[SystemKind] = (SystemKind.HAWKEYE,),
    epoch_sizes_ns: Sequence[int] = (1 << 20,),
    thresholds: Sequence[float] = (3.0,),
) -> List[SweepPoint]:
    """The cartesian product of sweep axes."""
    return [
        SweepPoint(scenario=s, system=sys, epoch_size_ns=e, threshold=t)
        for s, sys, e, t in itertools.product(
            scenarios, systems, epoch_sizes_ns, thresholds
        )
    ]


def _sweep_cell(item: Tuple[SweepPoint, ScenarioBuilder, int]) -> Tuple:
    """Worker for one (grid point, seed) cell; returns picklable pieces."""
    point, builder, seed = item
    scenario = builder(seed=seed)
    outcome = run_scenario(scenario, point.run_config())
    stage_walls = (
        {name: s["wall_s"] for name, s in outcome.perf.stages.items()}
        if outcome.perf is not None
        else {}
    )
    return (
        outcome.diagnosis(),
        scenario.truth,
        outcome.processing_bytes,
        outcome.bandwidth_bytes,
        stage_walls,
    )


def run_sweep(
    points: Iterable[SweepPoint],
    builders: Dict[str, ScenarioBuilder],
    seeds: Sequence[int] = (1, 2),
    score: Optional[ScoreConfig] = None,
    progress: Optional[Callable[[SweepPoint], None]] = None,
    jobs: int = 1,
) -> List[SweepResult]:
    """Run every grid cell over the given seeds.

    With ``jobs > 1`` the (point × seed) cells run across a process pool;
    every cell is an independent seeded simulation, so the aggregated
    results are identical to the serial order-of-execution.
    """
    points = list(points)
    items = [
        (point, builders[point.scenario], seed) for point in points for seed in seeds
    ]
    cells = fork_map(_sweep_cell, items, jobs)

    results: List[SweepResult] = []
    per_point = len(list(seeds))
    for i, point in enumerate(points):
        accuracy = AccuracyCounter()
        processing = bandwidth = 0
        stage_wall_s: Dict[str, float] = {}
        for j, seed in enumerate(seeds):
            diagnosis, truth, cell_processing, cell_bandwidth, cell_stages = cells[
                i * per_point + j
            ]
            accuracy.add(diagnosis, truth, score, label=f"seed{seed}")
            processing += cell_processing
            bandwidth += cell_bandwidth
            for name, wall in cell_stages.items():
                stage_wall_s[name] = stage_wall_s.get(name, 0.0) + wall
        results.append(
            SweepResult(
                point=point,
                accuracy=accuracy,
                processing_bytes=processing,
                bandwidth_bytes=bandwidth,
                stage_wall_s=stage_wall_s,
            )
        )
        if progress is not None:
            progress(point)
    return results


def write_csv(results: Iterable[SweepResult], fh: IO[str]) -> int:
    """Dump sweep results as CSV; returns the number of data rows."""
    writer = csv.writer(fh)
    writer.writerow(CSV_HEADER)
    count = 0
    for result in results:
        writer.writerow(result.row())
        count += 1
    return count


def best_configuration(results: Sequence[SweepResult]) -> Optional[SweepResult]:
    """The cell with the best (precision, recall) lexicographic score."""
    scored = [r for r in results]
    if not scored:
        return None
    return max(scored, key=lambda r: (r.accuracy.precision, r.accuracy.recall))
