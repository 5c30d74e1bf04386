"""Parameter sweeps: grid runs, accuracy aggregation, CSV export.

A sweep is a list of cells, ``(scenario name, RunConfig)``, each run over
the same seeds.  Every (cell, seed) run is the runner's unit of work — a
``(ScenarioSpec, RunConfig)`` item mapped through the worker that
:func:`~repro.experiments.runner.run_scenarios_parallel` maps — so a
cell's result is its seeds' :class:`RunSummary` records, scored by
:class:`AccuracyCounter`.  The CLI's ``sweep`` subcommand and the
Fig 7/8/10 and LoRDMA benches run on it.
"""

from __future__ import annotations

import csv
import itertools
from dataclasses import dataclass
from typing import IO, Iterable, List, Sequence, Tuple

from ..baselines.systems import SystemKind
from .metrics import AccuracyCounter
from .runner import RunConfig, RunSummary, ScenarioSpec, _run_spec_worker
from .supervise import fork_map

Cell = Tuple[str, RunConfig]


@dataclass
class SweepResult:
    """One cell's runs, one summary per seed."""

    scenario: str
    config: RunConfig
    summaries: List[RunSummary]

    @property
    def accuracy(self) -> AccuracyCounter:
        accuracy = AccuracyCounter()
        for summary in self.summaries:
            accuracy.add(summary)
        return accuracy

    def row(self) -> Tuple:
        accuracy = self.accuracy
        return (
            self.scenario,
            self.config.system.value,
            self.config.epoch_size_ns,
            f"{self.config.threshold_multiplier:.1f}",
            f"{accuracy.precision:.3f}",
            f"{accuracy.recall:.3f}",
            sum(s.processing_bytes for s in self.summaries),
            sum(s.bandwidth_bytes for s in self.summaries),
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
) -> List[Cell]:
    """The cartesian product of sweep axes, as ``(scenario, RunConfig)``."""
    return [
        (s, RunConfig(system=sys, epoch_size_ns=e, threshold_multiplier=t))
        for s, sys, e, t in itertools.product(
            scenarios, systems, epoch_sizes_ns, thresholds
        )
    ]


def run_sweep(
    cells: Iterable[Cell],
    seeds: Sequence[int] = (1, 2),
    jobs: int = 1,
) -> List[SweepResult]:
    """Run every cell over the given seeds, results in cell order.

    With ``jobs > 1`` the (cell × seed) runs spread across a process pool;
    every run is an independent seeded simulation, so the results are
    identical to the serial order-of-execution.
    """
    cells = list(cells)
    seeds = list(seeds)
    summaries = fork_map(
        _run_spec_worker,
        [
            (ScenarioSpec(name, seed), config)
            for name, config in cells
            for seed in seeds
        ],
        jobs,
    )
    return [
        SweepResult(name, config, summaries[i * len(seeds):(i + 1) * len(seeds)])
        for i, (name, config) in enumerate(cells)
    ]


def write_csv(results: Iterable[SweepResult], fh: IO[str]) -> int:
    """Dump sweep results as CSV; returns the number of data rows."""
    writer = csv.writer(fh)
    writer.writerow(CSV_HEADER)
    count = 0
    for result in results:
        writer.writerow(result.row())
        count += 1
    return count
