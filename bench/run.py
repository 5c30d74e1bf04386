#!/usr/bin/env python3
"""One wall-clock benchmark for the whole pipeline.

Two ways in:

``python3 bench/run.py --workload W --seed S --seconds N --trace 0|1``
    One run of one workload.  The last line of stdout is one JSON object
    with ``correct``, ``attempted``, ``failed`` and ``metrics``: every
    end-to-end metric with ``--trace 0``, every per-layer metric with
    ``--trace 1``.  A detail file (digests, samples, the self-time
    budget) goes to ``bench/out/``.

``python3 bench/run.py [--seed S] [--smoke] [--regold]``
    The whole suite: each workload untraced then traced, every metric
    printed by name with its unit, outputs verified, one results JSON
    written (``bench/compare.py`` compares two of them).

The program is reached only through its public surface; nothing under
``src/`` knows this benchmark exists.
"""

from __future__ import annotations

import argparse
import gc
import json
import signal
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Dict, List

BENCH = Path(__file__).resolve().parent
if str(BENCH) not in sys.path:
    sys.path.insert(0, str(BENCH))

import harness  # noqa: E402
import metrics as metric_defs  # noqa: E402
import probes  # noqa: E402
import stats  # noqa: E402
from harness import Run  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SETUP_PROBES = 2        # fresh-process set-ups timed beside the run's own
SMOKE_SECONDS = 1
DEFAULT_SECONDS = 12


def require_program() -> None:
    """The program is built from the checkout's own source; without it
    there is nothing to measure."""
    if not (harness.SRC / "repro" / "__init__.py").exists():
        sys.stderr.write(
            f"bench: no program to measure: {harness.SRC / 'repro'} is missing\n"
        )
        raise SystemExit(2)
    sys.path.insert(0, str(harness.SRC))


def teardown(workload, state) -> None:
    """Only serve_queries holds anything (its server) past set-up."""
    if hasattr(workload, "teardown"):
        workload.teardown(state)


def timed_setup(workload, seed: int):
    start = time.perf_counter()
    state = workload.setup(seed)
    return time.perf_counter() - start, state


def setup_probe(name: str, seed: int) -> float:
    """Set the workload up once in a fresh process; its own timing."""
    done = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--setup-probe",
         "--workload", name, "--seed", str(seed)],
        capture_output=True, text=True, timeout=170,
    )
    if done.returncode != 0:
        raise RuntimeError(f"setup probe failed: {done.stderr[-400:]}")
    return float(done.stdout.strip().splitlines()[-1])


def run_one(args) -> int:
    workload = WORKLOADS[args.workload]
    trace = bool(args.trace) or args.smoke
    probes_wanted = 0 if args.smoke else SETUP_PROBES
    setup_samples = [
        setup_probe(args.workload, args.seed) for _ in range(probes_wanted)
    ]
    run = Run(args.workload, args.seed, float(args.seconds), trace, args.smoke)
    own_setup, state = timed_setup(workload, args.seed)
    setup_samples.append(own_setup)
    try:
        gc.collect()
        workload.measure(run, state)
    finally:
        teardown(workload, state)
    if trace:
        run.rec.enabled = False
        workload.probe(run)
    harness.check_golden(run, harness.load_golden())

    raw = harness.raw_end_to_end(run, setup_samples)
    end_to_end = harness.end_to_end(run, raw)
    per_layer = harness.per_layer(run) if trace else {}
    if args.smoke:
        emitted = {**end_to_end, **per_layer}
    else:
        emitted = per_layer if trace else end_to_end
    line = harness.result_line(run, emitted)

    harness.OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}.{'smoke' if args.smoke else f'trace{int(trace)}'}"
    detail = harness.detail_document(
        run, line, {**end_to_end, **per_layer}, raw, setup_samples
    )
    detail["derived"] = [name for name in probes.DERIVED if per_layer.get(name)]
    (harness.OUT / f"{stem}.json").write_text(json.dumps(detail, indent=1) + "\n")
    if trace:
        run.rec.write_jsonl(harness.OUT / f"{args.workload}.trace.jsonl")
    for op in run.ops:
        if not op.ok:
            sys.stderr.write(f"bench: FAILED {op.op_id}: {op.why}\n")
    for name, reason in run.skipped.items():
        sys.stderr.write(f"bench: skipped {name}: {reason}\n")
    print(json.dumps(line))
    return 0


# -- the suite ------------------------------------------------------------------


def child_run(name: str, seed: int, seconds: int, trace: int, smoke: bool):
    command = [
        sys.executable, str(BENCH / "run.py"), "--workload", name,
        "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace),
    ]
    if smoke:
        command.append("--smoke")
    done = subprocess.run(command, capture_output=True, text=True, timeout=600)
    sys.stderr.write(done.stderr)
    if done.returncode != 0:
        raise RuntimeError(f"{name} (trace {trace}) exited {done.returncode}")
    stem = f"{name}.{'smoke' if smoke else f'trace{trace}'}"
    return json.loads((harness.OUT / f"{stem}.json").read_text())


def show(name: str, value: float, extra: str = "") -> None:
    print(f"  {name:<44} {value:>16.6g} {metric_defs.UNITS[name]:<6} {extra}")


def report(name: str, plain, traced, problems: List[str]) -> None:
    print(f"\n== {name} " + "=" * (70 - len(name)))
    source = plain if plain is not None else traced
    sample, work = metric_defs.WORKLOAD_TERMS[name]
    print(f"  latency sample: {sample}\n  unit of work:   {work}")
    print(
        f"  operations {source['result']['attempted']}, failed "
        f"{source['result']['failed']}, latency samples "
        f"{source['latency_samples']} ({source['latency_beyond_p75']:.1f} "
        f"beyond p75; one run supports "
        f"p{source['latency_percentile_one_run_supports']}), "
        f"wall {source['wall_s']:.2f} s, speed factor "
        f"{source['speed_factor']:.3f}"
        + ("" if source["comparable"] else "   [smoke: timings not comparable]")
    )
    for metric, _unit, _better, _bound in metric_defs.END_TO_END:
        value, raw = source["metrics"][metric], source["raw_wall_clock"][metric]
        show(metric, value, "" if raw == value else f"(wall clock as measured: {raw:.6g})")
    if traced is None:
        return
    for metric, _unit, _better in metric_defs.PER_LAYER:
        value = traced["metrics"][metric]
        if metric in traced["skipped"]:
            print(f"  {metric:<44} {'skipped':>16}        {traced['skipped'][metric]}")
        elif value or metric.startswith("bench."):
            extra = "derived by subtraction" if metric in traced["derived"] else ""
            if metric == "experiments.shard.speedup_wall":
                extra = (
                    f"cpu_count {harness.nproc()}, shards {harness.parallelism()}, "
                    f"serial {traced['metrics']['experiments.shard.serial_verdict_s']:.3f} s"
                    f" / sharded {traced['metrics']['experiments.shard.sharded_verdict_s']:.3f} s"
                )
            show(metric, value, extra)
    for key, title in (
        ("budget", "self-time budget of the traced rounds"),
        ("query_budget", "self-time budget of the traced queries (they overlap)"),
    ):
        table = traced.get(key)
        if table is None:
            continue
        print(f"  {title} ({table['traced_wall_s']:.3f} s):")
        for row, seconds in sorted(table["rows_s"].items(), key=lambda kv: -kv[1]):
            print(f"    {row:<24} {seconds:>10.4f} s")
        print(f"    {'sum':<24} {table['rows_sum_s']:>10.4f} s")
    if plain is not None:
        for op_id, digest in traced["digests"].items():
            if plain["digests"].get(op_id, digest) != digest:
                problems.append(f"{op_id}: traced and untraced sim_digest differ")


def suite(args) -> int:
    if args.regold and args.seed != harness.DEFAULT_SEED:
        raise SystemExit("--regold records the default seed only")
    seconds = SMOKE_SECONDS if args.smoke else args.seconds
    results: Dict[str, Any] = {
        "fingerprint": harness.fingerprint(args.seed),
        "seconds": seconds,
        "comparable": not args.smoke,
        "workloads": {},
    }
    problems: List[str] = []
    golden: Dict[str, str] = {}
    for name in WORKLOADS:
        if args.smoke:
            plains, traced = [], child_run(name, args.seed, seconds, 1, True)
        else:
            plains = [
                child_run(name, args.seed, seconds, 0, False)
                for _ in range(args.sets)
            ]
            traced = None if args.regold else child_run(
                name, args.seed, seconds, 1, False
            )
        plain = plains[-1] if plains else None
        report(name, plain, traced, problems)
        documents = plains + ([traced] if traced else [])
        for document in documents:
            golden.update(document["digests"])
            for failure in document["failures"]:
                problems.append(f"{failure['op_id']}: {failure['why']}")
        first = documents[0]
        samples = {
            metric: [doc["metrics"][metric] for doc in plains or [traced]]
            for metric, _u, _d, _b in metric_defs.END_TO_END
        }
        entry = {
            "end_to_end": {m: stats.median(v) for m, v in samples.items()},
            "samples": samples,
            "per_layer": traced["metrics"] if traced else {},
            "skipped": traced["skipped"] if traced else {},
            "repetitions": {**first["repetitions"], "sets": len(plains)},
            "digests": first["digests"],
            "attempted": sum(d["result"]["attempted"] for d in documents),
            "failed": sum(d["result"]["failed"] for d in documents),
        }
        if len(plains) >= 4:
            entry["spread"] = {
                m: stats.quartile_spread(v) for m, v in samples.items()
            }
            for metric, spread in entry["spread"].items():
                print(f"  spread over {len(plains)} sets: {metric:<20} {spread:.4f}")
        results["workloads"][name] = entry
    if args.regold:
        harness.GOLDEN.write_text(
            json.dumps(dict(sorted(golden.items())), indent=1) + "\n"
        )
        print(f"\nwrote {len(golden)} digests to {harness.GOLDEN}")
    out = Path(args.out) if args.out else harness.OUT / "results.json"
    out.write_text(json.dumps(results, indent=1) + "\n")
    print(f"\nresults: {out}")
    for problem in problems:
        print(f"PROBLEM {problem}")
    return 1 if problems else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=harness.DEFAULT_SEED)
    parser.add_argument("--seconds", type=int, default=DEFAULT_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="one repetition, checks on, timings not comparable")
    parser.add_argument("--regold", action="store_true",
                        help="rewrite bench/golden.json from a seed-1 run")
    parser.add_argument("--sets", type=int, default=1,
                        help="untraced runs per workload (median and spread)")
    parser.add_argument("--out", help="results JSON of a suite run")
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    require_program()
    harness.adopt_orphans()
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))  # run the finally
    try:
        if args.setup_probe:
            elapsed, state = timed_setup(WORKLOADS[args.workload], args.seed)
            teardown(WORKLOADS[args.workload], state)
            print(repr(elapsed))
            return 0
        if args.workload:
            return run_one(args)
        harness.OUT.mkdir(exist_ok=True)
        return suite(args)
    finally:
        # Nothing this process started may outlive it (see reap_descendants).
        harness.reap_descendants()


if __name__ == "__main__":
    sys.exit(main())
