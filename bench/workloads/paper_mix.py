"""paper_mix — the batch path every figure and ``repro run`` uses.

Closed loop, one thread.  A round is the seven small-fabric builders at
seed S+r through ``run_scenario`` followed by one ``python -m repro run
incast-backpressure --seed S+r`` subprocess, so all six verdict classes
are scored and the CLI's import cost is inside the measured window.
``repro.sim`` and the ``repro.telemetry`` write path do ~99% of the work
here; ``repro.core``, serve and sharding almost none.
"""

from __future__ import annotations

import subprocess
import sys
import time

import harness
import probes
import stats
from harness import Op, Run

NAME = "paper_mix"
WHY = (
    "seven anomaly builders through run_scenario plus a `repro run` "
    "subprocess: sim and telemetry writes dominate, core/serve/shards idle"
)

BUILDERS = (
    "incast-backpressure",
    "pfc-storm",
    "contention-masked-storm",
    "in-loop-deadlock",
    "out-of-loop-deadlock",
    "normal-contention",
    "lordma-attack",
)
CLI_BUILDER = "incast-backpressure"
WARMUP_BUILDER = "out-of-loop-deadlock"
ROUND_COST_S = 4.0


# lordma-attack raises no complaint at all on about one seed in five (11,
# 13, 14, 16, ... — the silent class ROADMAP lists as open), and a run
# must be scoreable at any --seed, so its seed is drawn from the ten
# lowest, all of which complain.
LORDMA_SEEDS = 10


def builder_seed(name: str, seed: int) -> int:
    return 1 + seed % LORDMA_SEEDS if name == "lordma-attack" else seed


def plan(seed: int, rounds: int):
    """The operations of a run, round by round: a pure function of the seed."""
    return [
        [("verdict", name, builder_seed(name, seed + r)) for name in BUILDERS]
        + [("cli", CLI_BUILDER, seed + r)]
        for r in range(rounds)
    ]


def setup(seed: int):
    # The CLI is what users start, and importing it pulls in every
    # public module the operations below touch.
    import repro.cli  # noqa: F401
    from repro.experiments import run_scenario
    from repro.workloads import SCENARIO_BUILDERS

    run_scenario(SCENARIO_BUILDERS[WARMUP_BUILDER](seed=seed))


def verdict_op(run: Run, name: str, seed: int, round_no: int) -> Op:
    from repro.experiments import FabricSession, diagnosis_correct, run_scenario
    from repro.workloads import SCENARIO_BUILDERS

    rec = run.rec
    op_id = f"{NAME}/{name}/seed={seed}"
    start = time.perf_counter()
    if rec.enabled:
        # The body of run_scenario, call by call, so each gets a span.
        with rec.span("op", op_id=op_id):
            with rec.span("build_scenario"):
                scenario = SCENARIO_BUILDERS[name](seed=seed)
            with rec.span("session_attach"):
                session = FabricSession(scenario)
            with rec.span("advance"):
                session.advance(scenario.duration_ns)
            with rec.span("finalize"):
                session.finalize()
            with rec.span("finish"):
                result = session.finish()
    else:
        scenario = SCENARIO_BUILDERS[name](seed=seed)
        result = run_scenario(scenario)
    latency = time.perf_counter() - start

    diagnosis = result.diagnosis()
    text = diagnosis.describe() if diagnosis is not None else None
    ok = diagnosis is not None and diagnosis_correct(diagnosis, scenario.truth)
    run.absorb_result(result, scenario.network)
    return Op(
        op_id, name, round_no, rec.enabled, latency, ok,
        why="" if ok else f"verdict wrong for {scenario.truth.anomaly.value}: {text}",
        digest=harness.sim_digest(
            text, result.events_run, scenario.network.sim.counters()
        ),
        events=result.events_run,
    )


def cli_op(run: Run, seed: int, round_no: int) -> Op:
    op_id = f"{NAME}/cli/{CLI_BUILDER}/seed={seed}"
    command = [
        sys.executable, "-m", "repro", "run", CLI_BUILDER, "--seed", str(seed),
    ]
    start = time.perf_counter()
    with run.rec.span("op", op_id=op_id):
        with run.rec.span("cli_run"):
            done = subprocess.run(
                command, env=harness.program_env(), cwd=harness.ROOT,
                capture_output=True, text=True, timeout=120,
            )
    latency = time.perf_counter() - start
    ok = done.returncode == 0
    return Op(
        op_id, "cli", round_no, run.rec.enabled, latency, ok,
        why="" if ok else f"exit {done.returncode}: {done.stderr[-200:]}",
        digest=harness.sim_digest(done.stdout),
    )


def one_op(run: Run, op, round_no: int) -> Op:
    kind, name, seed = op
    if kind == "verdict":
        return verdict_op(run, name, seed, round_no)
    return cli_op(run, seed, round_no)


def measure(run: Run, state) -> None:
    run.closed_loop(plan(run.seed, run.rounds(ROUND_COST_S)), one_op, spins=1)


def probe(run: Run) -> None:
    """Layer probes of the traced run (the layers this workload works)."""
    run.span_median("topology.build_s", "build_scenario")
    run.span_median("experiments.session_attach_s", "session_attach")
    run.span_median("experiments.finish_s", "finish")
    run.span_median("collection.flush_pending_s", "finalize")
    cli = [op.latency_s for op in run.ops if op.kind == "cli"]
    run.layer["cli.verdict_s"] = stats.median(cli)
    probes.cli_import(run)
    probes.sim_and_attach(run)
    probes.telemetry_stream(run)
    probes.obs_tracing(run)
    serial_round = sum(
        op.latency_s for op in run.ops
        if op.round == run.ops[-1].round and op.kind != "cli"
    )
    last_round = plan(run.seed, run.ops[-1].round + 1)[-1]
    specs = [(name, seed) for kind, name, seed in last_round if kind == "verdict"]
    probes.pool_jobs2(run, specs, serial_round)
