"""fuzz_campaign — generated fabrics, monitor on, through the fork pool.

Closed loop.  A round is one ``run_fuzz(FuzzConfig(budget=7, seed=S+r,
jobs=min(2, nproc)))``: the engine's seven family probes (fat-tree,
ring, leaf-spine, dumbbell, line; incast and host injection), each a
monitor-on ``run_scenario``, fanned over the pool.  It works
``repro.fuzz``, ``repro.monitor`` sampling and the pool fan-out.

The budget stops at the first generation on purpose.  What later
generations cost is decided by the master seed — 39 evaluations took 8 s
at seed 5 and 143 s at seed 3 on the reference box — so no figure from
them could repeat across seeds; the seven probes are the same work at
every seed (a budget-7 campaign never draws from its RNG).
"""

from __future__ import annotations

import time

import harness
import probes
import stats
from harness import Op, Run

NAME = "fuzz_campaign"
WHY = (
    "run_fuzz over the seven topology-family probes with the monitor on: "
    "repro.fuzz, monitor sampling and the fork pool, on non-fat-tree fabrics"
)

BUDGET = 7
ROUND_COST_S = 1.9


def plan(seed: int, rounds: int):
    jobs = harness.parallelism()
    return [[("campaign", BUDGET, seed + r, jobs)] for r in range(rounds)]


def setup(seed: int):
    from repro.fuzz import FuzzConfig, run_fuzz

    # Two evaluations: enough to start the pool and load the monitor.
    run_fuzz(FuzzConfig(budget=2, seed=seed, jobs=harness.parallelism()))


def campaign_op(run: Run, op, round_no: int) -> Op:
    from repro.fuzz import FuzzConfig, run_fuzz

    _kind, budget, seed, jobs = op
    op_id = f"{NAME}/budget={budget}/seed={seed}"
    start = time.perf_counter()
    with run.rec.span("op", op_id=op_id):
        with run.rec.span("run_fuzz"):
            report = run_fuzz(FuzzConfig(budget=budget, seed=seed, jobs=jobs))
    latency = time.perf_counter() - start
    ok = report.evaluated == budget and len(report.retained) > 0
    run.add("fuzz.retained", len(report.retained))
    run.add("fuzz.findings", len(report.findings))
    return Op(
        op_id, "campaign", round_no, run.rec.enabled, latency, ok,
        why="" if ok else f"evaluated {report.evaluated} of {budget}",
        digest=harness.sim_digest(
            report.coverage_keys(),
            [e.diagnosis_text for e in report.retained],
        ),
        work=budget,
    )


def measure(run: Run, state) -> None:
    run.closed_loop(plan(run.seed, run.rounds(ROUND_COST_S)), campaign_op)


def probe(run: Run) -> None:
    """The seven probes evaluated in-process, step by step: genome build
    and coverage reduction are timed, and the whole loop is the one-job
    baseline the pooled campaigns are compared with."""
    from repro.experiments import run_scenario
    from repro.fuzz import FuzzConfig, observe, seed_genomes

    builds, observes = [], []
    config = FuzzConfig().run_config()
    genomes = seed_genomes()[: 2 if run.smoke else BUDGET]
    loop_start = time.perf_counter()
    for genome in genomes:
        start = time.perf_counter()
        scenario = genome.build()
        builds.append(time.perf_counter() - start)
        result = run_scenario(scenario, config)
        start = time.perf_counter()
        observe(result)
        observes.append(time.perf_counter() - start)
    serial_s = time.perf_counter() - loop_start
    run.layer["fuzz.genome_build_ms_p50"] = stats.median(builds) * 1e3
    run.layer["fuzz.observe_ms_p50"] = stats.median(observes) * 1e3

    if harness.nproc() < 2:
        run.skip("fuzz.jobs2_speedup", "cpu_count < 2")
    elif run.smoke:
        run.skip("fuzz.jobs2_speedup", "smoke run")
    else:
        pooled = [op.latency_s for op in run.ops]
        run.layer["fuzz.jobs2_speedup"] = serial_s / stats.median(pooled)
    probes.monitor_cost(run)
