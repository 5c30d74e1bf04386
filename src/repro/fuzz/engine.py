"""The coverage-guided fuzz loop.

Generation-based search: a fixed-size batch of genomes is composed *before*
any of it is evaluated (all randomness drawn from the master RNG in a
fixed order), the batch is evaluated — in-process or across a fork pool,
order-stable either way — and retention/mutation decisions fold in
afterwards.  Batch composition therefore never depends on intra-batch
completion order, which is what makes ``jobs=N`` byte-identical to
``jobs=1``.

Seed corpus: a curated spread over the topology families plus unbiased
random draws.  Feedback: an evaluation is retained iff its coverage
fingerprint (verdict x confidence x signatures x alert combination x
graph shape) is new; retained genomes become mutation/crossover parents.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field, replace
from typing import Callable, Dict, List, Optional, Tuple

from ..experiments.runner import RunConfig, run_scenario
from ..experiments.supervise import fork_map
from ..monitor.monitor import MonitorConfig
from ..units import usec
from .coverage import FuzzObservation, interest_of, observe
from .genome import ScenarioGenome
from .mutate import crossover, mutate, random_genome


@dataclass
class FuzzConfig:
    """Knobs of one fuzz campaign (all defaults CI-safe)."""

    budget: int = 100          # total scenario evaluations
    seed: int = 1              # master RNG seed
    jobs: int = 1              # evaluation worker processes
    generation: int = 8        # evaluations composed per batch
    monitor_interval_us: float = 100.0

    def run_config(self) -> RunConfig:
        return RunConfig(
            monitor=MonitorConfig(
                interval_ns=usec(self.monitor_interval_us)
            )
        )


@dataclass
class FuzzEvaluation:
    """One evaluated genome (picklable; crosses the pool boundary)."""

    genome: ScenarioGenome
    observation: FuzzObservation
    fingerprint: str
    interest: Tuple[str, ...]
    diagnosis_text: Optional[str] = None


@dataclass
class FuzzReport:
    """The campaign's outcome: every retained coverage point, in order."""

    config: FuzzConfig
    evaluated: int = 0
    retained: List[FuzzEvaluation] = field(default_factory=list)

    @property
    def findings(self) -> List[FuzzEvaluation]:
        return [e for e in self.retained if e.interest]

    def coverage_keys(self) -> List[str]:
        return [e.fingerprint for e in self.retained]


def evaluate_genome(
    genome: ScenarioGenome, run_config: Optional[RunConfig] = None
) -> FuzzEvaluation:
    """Build, simulate, diagnose and reduce one genome to coverage."""
    config = run_config if run_config is not None else FuzzConfig().run_config()
    result = run_scenario(genome.build(), config)
    obs = observe(result)
    diagnosis = result.diagnosis()
    return FuzzEvaluation(
        genome=genome,
        observation=obs,
        fingerprint=obs.fingerprint(),
        interest=interest_of(obs),
        diagnosis_text=diagnosis.describe() if diagnosis is not None else None,
    )


def _eval_worker(item: Tuple[ScenarioGenome, RunConfig]) -> FuzzEvaluation:
    genome, run_config = item
    return evaluate_genome(genome, run_config)


def seed_genomes() -> List[ScenarioGenome]:
    """The deterministic first generation: one probe per fabric family."""
    base = ScenarioGenome()
    probes = [
        base,                                              # plain incast
        replace(base, incast_degree=0, storm_us=2500,
                storm_start_us=30, victim_kb=1500),        # host injection
        replace(base, storm_us=2500, storm_start_us=80),   # injection + incast
        replace(base, topology="ring", switches=4, hosts_per_switch=4,
                cbd_rewire=True, circulate=True, incast_degree=3,
                burst_kb=600, xoff_kb=30, xon_kb=5,
                kmin_kb=120, kmax_kb=400, duration_us=5000),
        replace(base, topology="leafspine", switches=4, oversub=0.25),
        replace(base, topology="dumbbell", hosts_per_switch=3,
                xoff_kb=200, xon_kb=100),
        replace(base, topology="line", switches=4, incast_degree=4),
    ]
    return [g.normalized() for g in probes]


def _compose_generation(
    size: int,
    rng: random.Random,
    parents: List[ScenarioGenome],
) -> List[ScenarioGenome]:
    """Draw the next batch from the retained corpus (or thin air)."""
    batch: List[ScenarioGenome] = []
    for _ in range(size):
        if not parents:
            batch.append(random_genome(rng))
            continue
        roll = rng.random()
        if roll < 0.15:
            batch.append(random_genome(rng))
        elif roll < 0.45 and len(parents) >= 2:
            a, b = rng.sample(parents, 2)
            batch.append(crossover(a, b, rng))
        else:
            batch.append(mutate(rng.choice(parents), rng))
    return batch


def run_fuzz(
    config: Optional[FuzzConfig] = None,
    progress: Optional[Callable[[int, FuzzReport], None]] = None,
) -> FuzzReport:
    """Run one campaign; a pure function of ``config`` (seed included)."""
    config = config if config is not None else FuzzConfig()
    run_config = config.run_config()
    rng = random.Random(config.seed)
    report = FuzzReport(config=config)
    seen: Dict[str, FuzzEvaluation] = {}
    parents: List[ScenarioGenome] = []

    while report.evaluated < config.budget:
        room = config.budget - report.evaluated
        if report.evaluated == 0:
            batch = seed_genomes()[:room]
        else:
            batch = _compose_generation(
                min(config.generation, room), rng, parents
            )
        items = [(genome, run_config) for genome in batch]
        for evaluation in fork_map(_eval_worker, items, config.jobs):
            report.evaluated += 1
            if evaluation.fingerprint in seen:
                continue
            seen[evaluation.fingerprint] = evaluation
            report.retained.append(evaluation)
            parents.append(evaluation.genome)
        if progress is not None:
            progress(report.evaluated, report)
    return report
