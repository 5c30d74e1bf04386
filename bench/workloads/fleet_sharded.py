"""fleet_sharded — one 128-host, 80-switch fabric, serial against sharded.

Closed loop.  A round is ``fleet-incast-k8`` at seed S+r through
``run_scenario_sharded`` twice: ``shards=1`` (which bypasses the shard
engine) and ``shards=min(2, nproc)``.  It is the only workload where
``repro.experiments.shardrun``, ``shmring``, ``repro.sim.shard`` and
``repro.topology.partition`` work: a barrier or transport change must
move the sharded half only, a sim-kernel change both.
"""

from __future__ import annotations

import time

import harness
import stats
from harness import Op, Run

NAME = "fleet_sharded"
WHY = (
    "K=8 fat-tree run at shards=1 then shards=2: the only work for the "
    "shard engine, barrier and transport; the serial twin bypasses them"
)

BUILDER = "fleet-incast-k8"
ROUND_COST_S = 1.8


def plan(seed: int, rounds: int):
    shards = harness.parallelism()
    return [
        [("serial", BUILDER, seed + r, 1), ("sharded", BUILDER, seed + r, shards)]
        for r in range(rounds)
    ]


def setup(seed: int):
    from repro.experiments import RunConfig, ScenarioSpec, run_scenario_sharded

    # A small fabric through the same sharded path loads the fork,
    # shared-memory and merge machinery before the first timed run.
    run_scenario_sharded(
        ScenarioSpec("out-of-loop-deadlock", seed=seed),
        RunConfig(shards=harness.parallelism()),
    )


def sharded_op(run: Run, kind: str, seed: int, shards: int, round_no: int):
    from repro.experiments import RunConfig, ScenarioSpec, run_scenario_sharded

    op_id = f"{NAME}/{kind}/seed={seed}"
    start = time.perf_counter()
    with run.rec.span("op", op_id=op_id):
        with run.rec.span(f"run_shards{shards}"):
            result = run_scenario_sharded(
                ScenarioSpec(BUILDER, seed=seed), RunConfig(shards=shards)
            )
    latency = time.perf_counter() - start
    diagnosis = result.diagnosis()
    text = diagnosis.describe() if diagnosis is not None else None
    run.absorb_result(result)
    op = Op(
        op_id, kind, round_no, run.rec.enabled, latency, ok=text is not None,
        why="" if text is not None else "no diagnosis",
        digest=harness.sim_digest(text, result.events_run),
        events=result.events_run,
        counts_latency=(kind == "sharded"),
    )
    return op, text, result


def measure(run: Run, state) -> None:
    rounds = run.rounds(ROUND_COST_S)
    perfs = []
    start = time.perf_counter()
    for round_no, round_ops in enumerate(plan(run.seed, rounds)):
        run.begin_round(round_no)
        (_, _, seed, _), (_, _, _, shards) = round_ops
        with run.rec.span("round"):
            run.calibrate(2)
            serial, serial_text, serial_result = sharded_op(
                run, "serial", seed, 1, round_no
            )
            run.calibrate(2)
            sharded, sharded_text, sharded_result = sharded_op(
                run, "sharded", seed, shards, round_no
            )
            run.ops += [serial, sharded]
            if sharded_text != serial_text:
                sharded.ok = False
                sharded.why = "sharded verdict text differs from serial"
            perf = sharded_result.perf
            if perf.supervision.get("fallback_ran"):
                sharded.ok = False
                sharded.why = f"shard fallback ran: {perf.supervision}"
                run.add("experiments.shard.serial_fallbacks", 1)
            run.add(
                "experiments.shard.extra_events",
                sharded_result.events_run - serial_result.events_run,
            )
            perfs.append(perf)
    run.wall_s = time.perf_counter() - start - run.spin_s
    _shard_layer(run, perfs)


def _shard_layer(run: Run, perfs) -> None:
    """The shard engine's own accounting, from RunResult.perf."""
    serial = [op.latency_s for op in run.ops if op.kind == "serial"]
    sharded = [op.latency_s for op in run.ops if op.kind == "sharded"]
    layer = run.layer
    layer["experiments.shard.serial_verdict_s"] = stats.median(serial)
    layer["experiments.shard.sharded_verdict_s"] = stats.median(sharded)
    if harness.parallelism() < 2:
        run.skip("experiments.shard.speedup_wall", "cpu_count < 2")
    else:
        layer["experiments.shard.speedup_wall"] = (
            stats.median(serial) / stats.median(sharded)
        )
    # The CPU-time model (events / slowest shard's busy CPU seconds) is
    # only ever reported beside the wall-clock rate it idealises.
    layer["experiments.shard.events_per_s_wall"] = stats.median(
        [p.events_run / p.wall_s for p in perfs]
    )
    layer["experiments.shard.events_per_s_cpu_model"] = stats.median(
        [p.aggregate_events_per_sec for p in perfs]
    )
    layer["experiments.shard.barrier_stall_s"] = stats.median(
        [p.barrier_stall_s for p in perfs]
    )
    for metric, stage in (
        ("experiments.shard.run_max_wall_s", "shard_run"),
        ("experiments.shard.transport_max_wall_s", "shard_transport"),
    ):
        layer[metric] = stats.median(
            [p.stages.get(stage, {}).get("max_wall_s", 0.0) for p in perfs]
        )
    for perf in perfs:
        run.add("experiments.shard.barrier_epochs", perf.barrier_epochs)
        for key in (
            "shm_frames", "pipe_frames", "shm_fallback_frames", "integrity_spills",
        ):
            run.add(f"experiments.shard.{key}", perf.transport.get(key, 0))


def probe(run: Run) -> None:
    from repro.experiments import ScenarioSpec
    from repro.topology.partition import partition_topology

    start = time.perf_counter()
    scenario = ScenarioSpec(BUILDER, seed=run.seed).build()
    run.layer["topology.build_s"] = time.perf_counter() - start
    start = time.perf_counter()
    partition_topology(scenario.network.topology, 2)
    run.layer["topology.partition_s"] = time.perf_counter() - start
