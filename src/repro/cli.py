"""Command-line interface: run a crafted anomaly scenario and diagnose it.

Usage::

    python -m repro list
    python -m repro run incast-backpressure [--seed N] [--system hawkeye]
                                            [--epoch-us 1048] [--threshold 3.0]
                                            [--dot out.dot] [--metrics-json m.json]
    python -m repro trace pfc-storm [--seed N] [--jsonl out.jsonl] [--sim-events]
    python -m repro monitor pfc-storm [--seed N] [--interval-us 100]
                                      [--prom m.prom] [--jsonl snap.jsonl]
                                      [--html dash.html]
    python -m repro chaos [--loss-rates 0 0.05 0.1] [--chaos-seed N]
    python -m repro fuzz [--budget N] [--seed N] [--jobs N]
                         [--minimize] [--corpus DIR]

``run`` builds the scenario, attaches the chosen diagnosis system, runs
the simulation and prints the paper-style diagnosis report (optionally
dumping the provenance graph as Graphviz).  ``trace`` replays a scenario
with the tracer on and pretty-prints the causal span tree — trigger to
polling rounds to epoch reads to verdict — of every diagnosis.
``monitor`` replays a scenario with continuous fabric monitoring on and
renders the text dashboard plus the incident timeline (exit 3 when no
alert fired).  ``chaos`` sweeps control-path loss across the anomaly
scenarios under a seeded fault plan and reports how gracefully diagnosis
degrades.  ``fuzz`` runs the coverage-guided scenario fuzzer and writes
minimized finding reproducers to the persistent corpus.

Each subcommand imports what it runs, so ``import repro.cli`` itself
loads only :mod:`argparse` and :mod:`repro.units`.
"""

from __future__ import annotations

import argparse
import sys
from typing import TYPE_CHECKING, List, Optional

from .units import usec

if TYPE_CHECKING:
    from .experiments import RunConfig


def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}")
    if value <= 0:
        raise argparse.ArgumentTypeError(f"must be a positive integer, got {value}")
    return value


def _nonnegative_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}")
    if value < 0:
        raise argparse.ArgumentTypeError(
            f"must be a non-negative integer, got {value}"
        )
    return value


def _positive_float(text: str) -> float:
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid float value: {text!r}")
    if value <= 0:
        raise argparse.ArgumentTypeError(f"must be positive, got {value}")
    return value


def _rate(text: str) -> float:
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid rate: {text!r}")
    if not 0.0 <= value <= 1.0:
        raise argparse.ArgumentTypeError(f"rate must be in [0, 1], got {value}")
    return value


def _seed32(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}")
    if not 0 <= value < 2**32:
        raise argparse.ArgumentTypeError(
            f"seed must be in [0, 2**32), got {value}"
        )
    return value


def _corpus_dir(text: str) -> str:
    import os

    path = os.path.expanduser(text)
    if os.path.exists(path) and not os.path.isdir(path):
        raise argparse.ArgumentTypeError(
            f"corpus path exists and is not a directory: {text!r}"
        )
    parent = os.path.dirname(os.path.abspath(path))
    if not os.path.isdir(parent):
        raise argparse.ArgumentTypeError(
            f"corpus parent directory does not exist: {parent!r}"
        )
    return path


def _resolve_scenario_name(args: argparse.Namespace) -> Optional[str]:
    """Normalize and validate the scenario a replay subcommand was given.

    Shared by ``trace`` and ``monitor``: the scenario arrives positionally
    or as ``--scenario``, underscores are accepted for dashes, and an
    unknown name prints the menu.  Returns None (after printing the error)
    when no valid scenario was named.
    """
    from .workloads import SCENARIO_BUILDERS

    name = getattr(args, "scenario_opt", None) or args.scenario
    if name is None:
        print(f"{args.command}: a scenario is required (positional or "
              f"--scenario)", file=sys.stderr)
        return None
    name = name.replace("_", "-")
    if name not in SCENARIO_BUILDERS:
        print(f"unknown scenario {name!r}; choose from "
              f"{', '.join(sorted(SCENARIO_BUILDERS))}", file=sys.stderr)
        return None
    return name


def _replay_scenario(name: str, seed: int, config: RunConfig):
    """Build the named scenario at ``seed`` and run it under ``config``."""
    from .experiments import run_scenario
    from .workloads import SCENARIO_BUILDERS

    scenario = SCENARIO_BUILDERS[name](seed=seed)
    return scenario, run_scenario(scenario, config)


def _write_json(path: str, document) -> None:
    import json as _json

    with open(path, "w") as fh:
        _json.dump(document, fh, indent=2)
        fh.write("\n")


def _write_metrics_json(path: Optional[str], result) -> None:
    if not path or result.metrics is None:
        return
    _write_json(path, result.metrics.to_dict())
    print(f"metrics written to {path}")


def _add_replay_arguments(sub: argparse.ArgumentParser) -> None:
    """The scenario/seed arguments every replay subcommand accepts."""
    sub.add_argument("scenario", nargs="?", metavar="SCENARIO",
                     help="scenario to replay (also accepted as --scenario)")
    sub.add_argument("--scenario", dest="scenario_opt", metavar="SCENARIO",
                     help=argparse.SUPPRESS)
    sub.add_argument("--seed", type=int, default=1)


def _build_parser() -> argparse.ArgumentParser:
    from .baselines import SystemKind
    from .workloads import SCENARIO_BUILDERS

    parser = argparse.ArgumentParser(
        prog="repro",
        description="Hawkeye reproduction: craft, run and diagnose RDMA NPAs.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="list available anomaly scenarios")

    run = sub.add_parser("run", help="run one scenario end to end")
    run.add_argument("scenario", choices=sorted(SCENARIO_BUILDERS))
    run.add_argument("--seed", type=int, default=1)
    run.add_argument(
        "--system",
        choices=[k.value for k in SystemKind],
        default=SystemKind.HAWKEYE.value,
        help="diagnosis system under test (default: hawkeye)",
    )
    run.add_argument("--epoch-us", type=_positive_float, default=1048.576,
                     help="telemetry epoch size in microseconds")
    run.add_argument("--threshold", type=_positive_float, default=3.0,
                     help="detection threshold as a multiple of base RTT")
    run.add_argument("--dot", metavar="FILE",
                     help="write the provenance graph as Graphviz DOT")
    run.add_argument("--metrics-json", metavar="FILE",
                     help="write the run's metrics registry "
                          "(counters/gauges/histograms) as JSON")
    run.add_argument("--shards", type=_positive_int, default=1, metavar="N",
                     help="partition the fabric across N worker processes "
                          "(clamped to the CPU count and the topology's "
                          "pod groups; diagnoses are byte-identical to "
                          "--shards 1)")

    trace = sub.add_parser(
        "trace",
        help="replay a scenario with tracing on and print the causal span tree",
    )
    _add_replay_arguments(trace)
    trace.add_argument("--jsonl", metavar="FILE",
                       help="also stream every trace record to FILE as JSONL")
    trace.add_argument("--metrics-json", metavar="FILE",
                       help="write the run's metrics registry as JSON")
    trace.add_argument("--sim-events", action="store_true",
                       help="include per-packet sim events and PFC pause "
                            "spans (verbose)")
    trace.add_argument("--max-lines", type=_nonnegative_int, default=0,
                       help="truncate the rendered tree after N lines "
                            "(default: print everything)")

    monitor = sub.add_parser(
        "monitor",
        help="replay a scenario with continuous fabric monitoring and "
             "render the dashboard + incident timeline",
    )
    _add_replay_arguments(monitor)
    monitor.add_argument("--interval-us", type=_positive_float, default=100.0,
                         help="sampling cadence in microseconds (default 100)")
    monitor.add_argument("--trace", action="store_true",
                         help="also run the pipeline tracer so incidents "
                              "carry obs span ids")
    monitor.add_argument("--prom", metavar="FILE",
                         help="write Prometheus text exposition to FILE")
    monitor.add_argument("--jsonl", metavar="FILE",
                         help="write series/alert/incident snapshots as JSONL")
    monitor.add_argument("--html", metavar="FILE",
                         help="write the dashboard as a standalone HTML page")
    monitor.add_argument("--metrics-json", metavar="FILE",
                         help="write the run's metrics registry as JSON")

    sweep = sub.add_parser("sweep", help="grid-sweep parameters over scenarios")
    sweep.add_argument("scenarios", nargs="+", choices=sorted(SCENARIO_BUILDERS))
    sweep.add_argument("--systems", nargs="+",
                       choices=[k.value for k in SystemKind],
                       default=[SystemKind.HAWKEYE.value])
    sweep.add_argument("--epochs-us", nargs="+", type=_positive_float,
                       default=[1048.576])
    sweep.add_argument("--thresholds", nargs="+", type=_positive_float,
                       default=[3.0])
    sweep.add_argument("--seeds", type=_positive_int, default=2,
                       help="traces per grid cell (default 2)")
    sweep.add_argument("--jobs", type=_positive_int, default=1,
                       help="worker processes for the sweep (default 1 = serial)")
    sweep.add_argument("--csv", metavar="FILE", help="write results as CSV")

    chaos = sub.add_parser(
        "chaos",
        help="sweep fault-injection loss rates across the anomaly scenarios",
    )
    # No ``choices=`` here: argparse rejects the empty list nargs="*"
    # produces when the positional is omitted; validated in _cmd_chaos.
    chaos.add_argument("scenarios", nargs="*", metavar="SCENARIO",
                       help="scenarios to stress (default: the chaos five)")
    chaos.add_argument("--loss-rates", nargs="+", type=_rate,
                       default=[0.0, 0.05, 0.10, 0.25],
                       help="polling/report loss probabilities to sweep")
    chaos.add_argument("--chaos-seed", type=int, default=1,
                       help="fault-plan seed (incident log is a pure "
                            "function of seed + plan)")
    chaos.add_argument("--no-retries", action="store_true",
                       help="disable agent retransmission and DMA retries")
    chaos.add_argument("--json", metavar="FILE",
                       help="write per-cell outcomes as JSON")

    fuzz = sub.add_parser(
        "fuzz",
        help="coverage-guided scenario fuzzing beyond the paper's five "
             "anomaly classes",
    )
    fuzz.add_argument("--budget", type=_positive_int, default=100,
                      help="total scenario evaluations (default 100)")
    fuzz.add_argument("--seed", type=_seed32, default=1,
                      help="master fuzz seed; the whole campaign is a pure "
                           "function of it (default 1)")
    fuzz.add_argument("--jobs", type=_positive_int, default=1,
                      help="evaluation worker processes (results identical "
                           "to --jobs 1)")
    fuzz.add_argument("--generation", type=_positive_int, default=8,
                      help="evaluations composed per batch (default 8)")
    fuzz.add_argument("--minimize", action="store_true",
                      help="delta-debug each finding to a minimal "
                           "reproducer before reporting/saving it")
    fuzz.add_argument("--corpus", type=_corpus_dir, metavar="DIR",
                      help="write finding reproducers (genome + expected "
                           "fingerprint) as JSON under DIR")

    serve = sub.add_parser(
        "serve",
        help="run a long-lived multi-tenant diagnosis service over a "
             "continuously-monitored fabric",
    )
    serve.add_argument("scenario", nargs="?", default="pfc-storm",
                       choices=sorted(SCENARIO_BUILDERS),
                       help="scenario the fabric replays (default pfc-storm)")
    serve.add_argument("--seed", type=int, default=1,
                       help="episode 0 seed; episode k runs at seed+k")
    serve.add_argument("--unix", metavar="PATH",
                       help="listen on a unix socket at PATH")
    serve.add_argument("--port", type=_nonnegative_int, default=None,
                       help="listen on 127.0.0.1:PORT (0 = ephemeral)")
    serve.add_argument("--host", default="127.0.0.1",
                       help="TCP bind address (default 127.0.0.1)")
    serve.add_argument("--episodes", type=_positive_int, default=None,
                       help="stop advancing after N episodes "
                            "(default: replay forever)")
    serve.add_argument("--slice-us", type=_positive_float, default=200.0,
                       help="sim time advanced per slice (default 200)")
    serve.add_argument("--interval-us", type=_positive_float, default=100.0,
                       help="monitor sampling cadence (default 100)")
    serve.add_argument("--tenant-rate", type=_positive_float, default=50.0,
                       help="per-tenant query tokens per second (default 50)")
    serve.add_argument("--tenant-burst", type=_positive_float, default=20.0,
                       help="per-tenant token bucket burst (default 20)")
    serve.add_argument("--sub-queue", type=_positive_int, default=256,
                       help="per-subscriber event queue bound (default 256)")
    return parser


def _cmd_list() -> int:
    from .workloads import SCENARIO_BUILDERS

    for name in sorted(SCENARIO_BUILDERS):
        scenario = SCENARIO_BUILDERS[name](seed=1)
        print(f"{name:26s} {scenario.description}")
    return 0


def _resolve_shards(args: argparse.Namespace, scenario, config: RunConfig) -> int:
    """Clamp ``--shards`` to what the machine, topology and engine honor.

    More worker processes than CPUs time-share cores for no aggregate
    gain; more shards than partitionable pod groups is impossible by
    construction.  Both clamp with a warning rather than erroring, so
    scripted invocations stay portable across machine sizes.  A config
    the shard engine does not take (``shardrun.serial_reason``) runs on
    the serial engine — same verdict by contract — with a note.
    """
    shards = args.shards
    if shards <= 1:
        return 1
    import os

    cpus = os.cpu_count() or 1
    if shards > cpus:
        print(f"warning: --shards {shards} exceeds the {cpus} available "
              f"CPU(s); clamping to {cpus}", file=sys.stderr)
        shards = cpus
    if shards > 1:
        from .experiments.shardrun import serial_reason
        from .topology.partition import partition_topology

        plan = partition_topology(scenario.network.topology, shards)
        if plan.shards < shards:
            print(f"warning: --shards {shards} exceeds the topology's "
                  f"{plan.shards} partitionable pod group(s); clamping to "
                  f"{plan.shards}", file=sys.stderr)
            shards = plan.shards
        reason = serial_reason(config, plan)
        if reason is not None:
            print(f"note: --shards {args.shards} not used: {reason}; "
                  f"ran on the serial engine", file=sys.stderr)
            shards = 1
    return shards


def _cmd_run(args: argparse.Namespace) -> int:
    from .baselines import SystemKind
    from .experiments import RunConfig, diagnosis_correct, run_scenario
    from .workloads import SCENARIO_BUILDERS

    builder = SCENARIO_BUILDERS[args.scenario]
    scenario = builder(seed=args.seed)
    config = RunConfig(
        system=SystemKind(args.system),
        epoch_size_ns=usec(args.epoch_us),
        threshold_multiplier=args.threshold,
    )
    config.shards = _resolve_shards(args, scenario, config)
    print(f"scenario : {scenario.name}")
    print(f"           {scenario.description}")
    print(f"system   : {config.system.value}")
    if config.shards > 1:
        print(f"shards   : {config.shards} worker processes")

    if config.shards > 1:
        from .experiments import ScenarioSpec, run_scenario_sharded

        result = run_scenario_sharded(
            ScenarioSpec(args.scenario, seed=args.seed), config
        )
    else:
        result = run_scenario(scenario, config)
    supervision = result.perf.supervision
    if supervision.get("fallback_ran"):
        # A sharded run that lost a worker says so on stderr too.
        lost = ",".join(str(sid) for sid in supervision["lost_shards"])
        print(f"warning: shard {lost} lost ({supervision['failure_kind']}); "
              f"{supervision['fallback_ran']} fallback ran", file=sys.stderr)

    outcome = result.primary_outcome()
    if outcome is None:
        print("\nno victim complained: nothing to diagnose")
        return 1
    print(f"\ntrigger  : {outcome.trigger.victim} at "
          f"t={outcome.trigger.time_ns / 1e6:.3f} ms")
    print(f"telemetry: {', '.join(sorted(outcome.reports_used))} "
          f"({result.processing_bytes:,} B; causal coverage "
          f"{result.causal_coverage:.0%})")
    print()
    print(outcome.diagnosis.describe())

    verdict = diagnosis_correct(outcome.diagnosis, scenario.truth)
    print(f"\nground truth: {scenario.truth.anomaly.value} -> "
          f"{'CORRECT' if verdict else 'INCORRECT'}")

    if args.dot and outcome.annotated is not None:
        with open(args.dot, "w") as fh:
            fh.write(outcome.annotated.graph.to_dot())
        print(f"provenance graph written to {args.dot}")

    _write_metrics_json(args.metrics_json, result)
    return 0 if verdict else 2


def _cmd_trace(args: argparse.Namespace) -> int:
    from .experiments import RunConfig
    from .obs import (
        ObsConfig,
        build_tree,
        check_causal_chains,
        render_tree,
        validate_records,
    )

    name = _resolve_scenario_name(args)
    if name is None:
        return 2
    obs_config = ObsConfig(
        trace=True, jsonl_path=args.jsonl, sim_events=args.sim_events
    )
    scenario, result = _replay_scenario(name, args.seed, RunConfig(obs=obs_config))
    records = result.obs.tracer.records()
    roots, _ = build_tree(records)

    rendered = render_tree(roots)
    lines = rendered.splitlines()
    if args.max_lines and len(lines) > args.max_lines:
        print("\n".join(lines[: args.max_lines]))
        print(f"... ({len(lines) - args.max_lines} more lines; "
              f"re-run without --max-lines)")
    else:
        print(rendered)

    errors = validate_records(records)
    chains = check_causal_chains(records)
    complete = sum(1 for missing in chains.values() if not missing)
    unresolved = sum(
        1 for missing in chains.values() if missing == ["unresolved"]
    )
    broken = {
        victim: missing
        for victim, missing in chains.items()
        if missing and missing != ["unresolved"]
    }
    print(f"\n{len(records)} trace records; {len(chains)} diagnosis spans: "
          f"{complete} complete causal chains, {unresolved} unresolved "
          f"(no verdict before end of run), {len(broken)} broken")
    for victim, missing in sorted(broken.items()):
        print(f"  BROKEN {victim}: missing {', '.join(missing)}")
    for error in errors:
        print(f"  INVALID {error}")

    if args.jsonl:
        print(f"trace records written to {args.jsonl}")
    _write_metrics_json(args.metrics_json, result)
    return 2 if (errors or broken) else 0


def _cmd_monitor(args: argparse.Namespace) -> int:
    from .experiments import RunConfig
    from .monitor import (
        MonitorConfig,
        jsonl_snapshot,
        prometheus_text,
        render_dashboard,
        render_html,
    )
    from .obs import ObsConfig

    name = _resolve_scenario_name(args)
    if name is None:
        return 2
    config = RunConfig(
        monitor=MonitorConfig(interval_ns=usec(args.interval_us)),
        obs=ObsConfig(trace=True) if args.trace else None,
    )
    scenario, result = _replay_scenario(name, args.seed, config)
    monitor = result.monitor

    print(f"scenario : {scenario.name}")
    print(f"           {scenario.description}")
    print()
    print(render_dashboard(monitor))

    if args.prom:
        with open(args.prom, "w") as fh:
            fh.write(prometheus_text(monitor))
        print(f"prometheus exposition written to {args.prom}")
    if args.jsonl:
        with open(args.jsonl, "w") as fh:
            for line in jsonl_snapshot(monitor):
                fh.write(line + "\n")
        print(f"monitor snapshots written to {args.jsonl}")
    if args.html:
        with open(args.html, "w") as fh:
            fh.write(render_html(monitor, title=f"fabric monitor: {name}"))
        print(f"dashboard written to {args.html}")
    _write_metrics_json(args.metrics_json, result)
    # A monitored anomaly scenario with zero alerts means the watchdogs
    # slept through it; CI treats that as a failure (exit 3).
    return 0 if monitor.alerts else 3


def _cmd_sweep(args: argparse.Namespace) -> int:
    from .baselines import SystemKind
    from .experiments import grid, run_sweep, write_csv

    cells = grid(
        scenarios=args.scenarios,
        systems=[SystemKind(s) for s in args.systems],
        epoch_sizes_ns=[usec(e) for e in args.epochs_us],
        thresholds=args.thresholds,
    )
    jobs = max(1, args.jobs)
    suffix = f" across {jobs} workers" if jobs > 1 else ""
    print(f"sweeping {len(cells)} cells x {args.seeds} seeds{suffix} ...")
    results = run_sweep(cells, seeds=range(1, args.seeds + 1), jobs=jobs)
    for r in results:
        print(f"  done: {r.scenario} / {r.config.system.value} / "
              f"epoch={r.config.epoch_size_ns}ns / "
              f"thr={r.config.threshold_multiplier}")
    header = f"{'scenario':24s} {'system':13s} {'epoch':>9s} {'thr':>5s} {'prec':>6s} {'rec':>6s}"
    print("\n" + header)
    print("-" * len(header))
    for r in results:
        accuracy = r.accuracy
        print(f"{r.scenario:24s} {r.config.system.value:13s} "
              f"{r.config.epoch_size_ns:>9d} {r.config.threshold_multiplier:>5.1f} "
              f"{accuracy.precision:>6.2f} {accuracy.recall:>6.2f}")
    if args.csv:
        with open(args.csv, "w", newline="") as fh:
            rows = write_csv(results, fh)
        print(f"\n{rows} rows written to {args.csv}")
    return 0


def _cmd_chaos(args: argparse.Namespace) -> int:
    from .faults import CHAOS_SCENARIOS, chaos_sweep, summarize
    from .workloads import SCENARIO_BUILDERS

    for name in args.scenarios:
        if name not in SCENARIO_BUILDERS:
            print(f"unknown scenario {name!r}; choose from "
                  f"{', '.join(sorted(SCENARIO_BUILDERS))}", file=sys.stderr)
            return 2
    scenarios = tuple(args.scenarios) if args.scenarios else CHAOS_SCENARIOS
    retry = not args.no_retries
    print(f"chaos sweep: {len(scenarios)} scenarios x "
          f"{len(args.loss_rates)} loss rates (fault seed {args.chaos_seed}, "
          f"retries {'on' if retry else 'off'})")
    cells = chaos_sweep(
        scenarios=scenarios,
        loss_rates=tuple(args.loss_rates),
        seed=args.chaos_seed,
        retry=retry,
    )
    header = (f"{'scenario':24s} {'loss':>6s} {'verdict':>9s} "
              f"{'confidence':>10s} {'complete':>8s} {'incidents':>9s}")
    print("\n" + header)
    print("-" * len(header))
    for loss_rate, s in cells:
        if s.crashed:
            verdict = "CRASH"
        elif s.diagnosis is None:
            verdict = "none"
        else:
            verdict = "correct" if s.correct else "wrong"
        print(f"{s.spec.builder:24s} {loss_rate:>6.0%} {verdict:>9s} "
              f"{s.confidence:>10s} {s.completeness:>8.0%} "
              f"{len(s.fault_incidents):>9d}")
    tally = summarize(s for _, s in cells)
    print(f"\n{tally['cells']} cells: {tally['correct']} correct "
          f"({tally['degraded']} degraded confidence), "
          f"{tally['no_verdict']} no verdict, {tally['crashed']} crashed, "
          f"{tally['wrong_full_confidence']} wrong-at-full-confidence")
    if args.json:
        payload = {
            "seed": args.chaos_seed,
            "summary": tally,
            "cells": [
                {
                    "scenario": s.spec.builder,
                    "loss_rate": loss_rate,
                    "diagnosed": s.diagnosis and s.diagnosis.anomaly.value,
                    "correct": s.correct,
                    "confidence": s.confidence,
                    "completeness": s.completeness,
                    "fault_counters": s.fault_counters,
                    "error": s.error,
                }
                for loss_rate, s in cells
            ],
        }
        _write_json(args.json, payload)
        print(f"outcomes written to {args.json}")
    if tally["crashed"] or tally["wrong_full_confidence"]:
        return 2
    return 0


def _cmd_fuzz(args: argparse.Namespace) -> int:
    from .fuzz import (
        FuzzConfig,
        entry_from_evaluation,
        evaluate_genome,
        minimize,
        run_fuzz,
        save_entry,
    )

    config = FuzzConfig(
        budget=args.budget,
        seed=args.seed,
        jobs=args.jobs,
        generation=args.generation,
    )
    suffix = f" across {config.jobs} workers" if config.jobs > 1 else ""
    print(f"fuzzing: budget {config.budget}, seed {config.seed}, "
          f"generation {config.generation}{suffix}")

    def _progress(evaluated: int, report) -> None:
        print(f"  {evaluated:>4d}/{config.budget} evaluated, "
              f"{len(report.retained)} coverage points, "
              f"{len(report.findings)} findings")

    report = run_fuzz(config, progress=_progress)

    findings = report.findings
    print(f"\n{report.evaluated} scenarios evaluated: "
          f"{len(report.retained)} distinct coverage points, "
          f"{len(findings)} findings")
    if args.minimize and findings:
        run_config = config.run_config()
        minimized = []
        for evaluation in findings:
            print(f"  minimizing {evaluation.observation.verdict} "
                  f"[{evaluation.fingerprint[:10]}] ...")
            genome = minimize(
                evaluation.genome, evaluation.fingerprint,
                run_config=run_config,
            )
            minimized.append(evaluate_genome(genome, run_config))
        findings = minimized

    header = f"{'verdict':36s} {'fingerprint':>12s}  interest"
    print("\n" + header)
    print("-" * len(header))
    for evaluation in findings:
        print(f"{evaluation.observation.verdict:36s} "
              f"{evaluation.fingerprint[:12]:>12s}  "
              f"{', '.join(evaluation.interest)}")

    if args.corpus:
        provenance = {
            "budget": config.budget,
            "seed": config.seed,
            "minimized": bool(args.minimize),
        }
        for evaluation in findings:
            path = save_entry(
                args.corpus,
                entry_from_evaluation(evaluation, provenance=provenance),
            )
            print(f"reproducer written to {path}")
    # A campaign that surfaced nothing beyond routine coverage exits 3,
    # mirroring ``monitor``'s no-alert convention.
    return 0 if findings else 3


def _cmd_serve(args: argparse.Namespace) -> int:
    import asyncio

    from .serve import DiagnosisService, ServeConfig

    if args.unix is None and args.port is None:
        print("serve: need --unix PATH or --port PORT", file=sys.stderr)
        return 2

    config = ServeConfig(
        scenario=args.scenario,
        seed=args.seed,
        episodes=args.episodes,
        slice_us=args.slice_us,
        interval_us=args.interval_us,
        tenant_rate_per_s=args.tenant_rate,
        tenant_burst=args.tenant_burst,
        sub_queue=args.sub_queue,
    )

    async def _serve() -> None:
        service = DiagnosisService(config)
        # Before the listener opens: a client that can see the socket can
        # signal us, and episode 0 is still being built at that point.
        service.install_signal_handlers()
        await service.start(
            unix_path=args.unix, host=args.host, port=args.port
        )
        for address in service.addresses:
            print(f"serving {config.scenario} on {address}", flush=True)
        await service.run_until_signalled()
        print("serve: shut down cleanly", flush=True)

    asyncio.run(_serve())
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    args = _build_parser().parse_args(argv)
    if args.command == "list":
        return _cmd_list()
    if args.command == "serve":
        return _cmd_serve(args)
    if args.command == "sweep":
        return _cmd_sweep(args)
    if args.command == "chaos":
        return _cmd_chaos(args)
    if args.command == "fuzz":
        return _cmd_fuzz(args)
    if args.command == "trace":
        return _cmd_trace(args)
    if args.command == "monitor":
        return _cmd_monitor(args)
    return _cmd_run(args)


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    sys.exit(main())
