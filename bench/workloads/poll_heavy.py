"""poll_heavy — the telemetry plane used the other way: read-heavy.

Closed loop.  A round is ``pfc-storm`` then ``incast-backpressure`` at
seed S+r: a bare ``Network`` with ``deploy_analyzer(net)`` and a
bench-owned 10 us tick calling ``collector.collect_all(now)`` (dedup
5 us) — 400 full-fabric collections, 8 000 reports and (on the storm) 21
diagnosed incidents per episode.  Register *reads* (flush on first read,
the snapshot / epoch-materialize memos, report aggregation) sit beside
the writes, and ``repro.core`` builds a graph per incident: the memo
caches that never hit in ``paper_mix`` pay here or nowhere.
"""

from __future__ import annotations

import hashlib
import time

import harness
import probes
from harness import Op, Run

NAME = "poll_heavy"
WHY = (
    "10 us full-fabric polling under the analyzer service: telemetry reads, "
    "memo caches and repeated repro.core graph builds, idle in paper_mix"
)

BUILDERS = ("pfc-storm", "incast-backpressure")
TICK_US = 10
DEDUP_US = 5
ROUND_COST_S = 1.0


def plan(seed: int, rounds: int):
    return [
        [("episode", name, seed + r) for name in BUILDERS]
        for r in range(rounds)
    ]


def setup(seed: int):
    import repro.experiments  # noqa: F401

    episode(Run(NAME, seed, 0.0, trace=False), ("episode", BUILDERS[0], seed), 0)


def episode(run: Run, op, round_no: int) -> Op:
    from repro.experiments import deploy_analyzer, diagnosis_correct
    from repro.units import usec
    from repro.workloads import SCENARIO_BUILDERS

    _kind, name, seed = op
    rec = run.rec
    op_id = f"{NAME}/{name}/seed={seed}"
    busy = [0.0, 0]
    start = time.perf_counter()
    with rec.span("op", op_id=op_id):
        with rec.span("build_scenario"):
            scenario = SCENARIO_BUILDERS[name](seed=seed)
        net = scenario.network
        with rec.span("deploy_analyzer"):
            service = deploy_analyzer(net)
        collector = service.collector
        collector.dedup_interval_ns = usec(DEDUP_US)
        tick_ns = usec(TICK_US)

        def tick() -> None:
            t0 = time.perf_counter()
            collector.collect_all(net.sim.now)
            busy[0] += time.perf_counter() - t0
            busy[1] += 1
            net.sim.schedule(tick_ns, tick)

        net.sim.schedule(tick_ns, tick)
        with rec.span("advance") as advance:
            net.run(scenario.duration_ns)
    latency = time.perf_counter() - start

    if advance is not None:
        # The ticks run inside `advance`; their summed busy time becomes
        # one child span so the budget splits polling from simulation.
        rec.add("collect_all", advance.start, advance.start + busy[0], advance)
    diagnosed = service.diagnosed_incidents()
    ok = bool(diagnosed) and diagnosis_correct(
        diagnosed[0].diagnosis, scenario.truth
    )
    log = "\n".join(incident.describe() for incident in service.incidents)
    events = net.sim.events_run
    run.add("sim.events", events)
    run.peak("sim.peak_pending_events", net.sim.max_pending_entries)
    run.add("sim.events_purged", net.sim.events_purged)
    run.add("sim.compactions", net.sim.compactions)
    run.add(
        "sim.data_pkt_hops",
        sum(sw.stats.data_pkts for sw in net.switches.values()),
    )
    run.absorb_switch_stats(net)
    run.add("collection.collect_all_calls", busy[1])
    run.add("collection.collect_all_busy_s", busy[0])
    run.add("collection.reports", len(collector.reports))
    run.add("collection.collections", collector.stats.collections)
    run.add("collection.polling_packets", service.engine.polling_packets_forwarded)
    deployment = collector.deployment
    for cache, (hits, misses) in deployment.cache_counters().items():
        run.hit(cache, hits, misses)
    return Op(
        op_id, name, round_no, rec.enabled, latency, ok,
        why="" if ok else (
            f"{len(diagnosed)} diagnosed incidents, first one wrong or absent"
        ),
        digest=harness.sim_digest(
            hashlib.sha256(log.encode()).hexdigest(), events,
            net.sim.counters(), len(collector.reports),
        ),
        events=events,
    )


def measure(run: Run, state) -> None:
    from repro.experiments.perfstats import (
        diff_cache_counters, global_cache_counters,
    )

    caches_before = global_cache_counters()
    run.closed_loop(plan(run.seed, run.rounds(ROUND_COST_S)), episode, spins=1)
    for cache, tally in diff_cache_counters(
        caches_before, global_cache_counters()
    ).items():
        run.hit(cache, tally["hits"], tally["misses"])


def probe(run: Run) -> None:
    run.span_median("topology.build_s", "build_scenario")
    probes.core_graph(run)
