"""Print the poll_heavy incident log digest per (builder, seed).

Mirrors bench/workloads/poll_heavy.py's episode: deploy_analyzer on a bare
scenario network, a 10 us collect_all tick with 5 us dedup.
usage: PYTHONPATH=<checkout>/src python poll_logs.py <outdir> <seed>...
"""
import hashlib, os, sys
from repro.experiments import deploy_analyzer
from repro.units import usec
from repro.workloads import SCENARIO_BUILDERS

out = sys.argv[1]
os.makedirs(out, exist_ok=True)
for seed in map(int, sys.argv[2:]):
    for name in ("pfc-storm", "incast-backpressure"):
        scenario = SCENARIO_BUILDERS[name](seed=seed)
        net = scenario.network
        service = deploy_analyzer(net)
        collector = service.collector
        collector.dedup_interval_ns = usec(5)
        tick_ns = usec(10)

        def tick():
            collector.collect_all(net.sim.now)
            net.sim.schedule(tick_ns, tick)

        net.sim.schedule(tick_ns, tick)
        net.run(scenario.duration_ns)
        log = "\n".join(i.describe() for i in service.incidents)
        with open(f"{out}/{name}-{seed}.log", "w") as fh:
            fh.write(log + "\n")
        print(name, seed, hashlib.sha256(log.encode()).hexdigest()[:16],
              net.sim.events_run, len(collector.reports), "degraded" in log, flush=True)
