"""Every metric the benchmark emits: name, unit, direction.

``BENCHMARK.json`` lists the same names (``bench/tests`` keeps the two in
step).  Every ``*_s``/``*_ms``/``*_ns``/``*_per_s`` metric is *host* wall
time; counts are simulated statistics and repeat exactly for a seed.

End-to-end metrics are emitted by every workload with ``--trace 0``.
What "latency" and "work" mean on each workload is in WORKLOAD_TERMS.
Per-layer metrics are emitted by every workload with ``--trace 1``; one a
workload does not exercise reads 0 there (its "should not move" side).
"""

from __future__ import annotations

from typing import Dict, List, Tuple

# name, unit, better, bound (share of the parent's median)
END_TO_END: List[Tuple[str, str, str, float]] = [
    ("setup_s", "s", "lower", 0.25),
    ("latency_ms_p50", "ms", "lower", 0.25),
    ("latency_ms_p75", "ms", "lower", 0.25),
    ("throughput_per_s", "1/s", "higher", 0.25),
    ("peak_rss_mb", "MiB", "lower", 0.15),
]

# workload -> (what one latency sample is, what one unit of work is)
WORKLOAD_TERMS: Dict[str, Tuple[str, str]] = {
    "paper_mix": (
        "builder call -> RunResult of one run_scenario, or spawn -> exit of "
        "one `python -m repro run`",
        "verdict",
    ),
    "fleet_sharded": (
        "spec -> RunResult of one run_scenario_sharded at "
        "shards=min(2, nproc); the shards=1 twin is timed beside it",
        "run (serial twin or sharded)",
    ),
    "poll_heavy": (
        "builder call -> end of one polled monitoring episode",
        "episode",
    ),
    "serve_queries": (
        "query due time -> its `result` reply (open loop, 20/s)",
        "served episode",
    ),
    "fuzz_campaign": (
        "one run_fuzz campaign over the seven family probes",
        "genome evaluation",
    ),
}

# name, unit, better.  The layer is the part of the name before the dot.
PER_LAYER: List[Tuple[str, str, str]] = [
    ("cli.import_s", "s", "lower"),
    ("cli.verdict_s", "s", "lower"),
    ("topology.build_s", "s", "lower"),
    ("topology.partition_s", "s", "lower"),
    ("sim.bare_run_s", "s", "lower"),
    ("sim.us_per_event", "us", "lower"),
    ("sim.events", "count", "lower"),
    ("sim.events_per_s", "ev/s", "higher"),
    ("sim.peak_pending_events", "count", "lower"),
    ("sim.events_purged", "count", "lower"),
    ("sim.compactions", "count", "lower"),
    ("sim.data_pkt_hops", "count", "lower"),
    ("sim.pause_sent", "count", "lower"),
    ("sim.ecn_marked", "count", "lower"),
    ("telemetry.attach_overhead_s", "s", "lower"),
    ("telemetry.enqueue_ns_per_pkt", "ns", "lower"),
    ("telemetry.snapshot_first_ms", "ms", "lower"),
    ("telemetry.snapshot_repeat_ms", "ms", "lower"),
    ("telemetry.snapshot_hit_ratio", "ratio", "higher"),
    ("telemetry.epoch_materialize_hit_ratio", "ratio", "higher"),
    ("collection.collect_all_calls", "count", "lower"),
    ("collection.collect_all_busy_s", "s", "lower"),
    ("collection.reports", "count", "lower"),
    ("collection.collections", "count", "lower"),
    ("collection.polling_packets", "count", "lower"),
    ("collection.flush_pending_s", "s", "lower"),
    ("core.graph_build_cold_s", "s", "lower"),
    ("core.graph_build_warm_s", "s", "lower"),
    ("core.diagnose_s", "s", "lower"),
    ("core.graph_ports", "count", "lower"),
    ("core.graph_edges", "count", "lower"),
    ("core.replay_hit_ratio", "ratio", "higher"),
    ("core.report_agg_hit_ratio", "ratio", "higher"),
    ("monitor.overhead_s", "s", "lower"),
    ("monitor.samples", "count", "lower"),
    ("monitor.alerts", "count", "lower"),
    ("monitor.prom_render_ms", "ms", "lower"),
    ("experiments.session_attach_s", "s", "lower"),
    ("experiments.finish_s", "s", "lower"),
    ("experiments.shard.serial_verdict_s", "s", "lower"),
    ("experiments.shard.sharded_verdict_s", "s", "lower"),
    ("experiments.shard.speedup_wall", "ratio", "higher"),
    ("experiments.shard.events_per_s_wall", "ev/s", "higher"),
    ("experiments.shard.events_per_s_cpu_model", "ev/s", "higher"),
    ("experiments.shard.barrier_epochs", "count", "lower"),
    ("experiments.shard.barrier_stall_s", "s", "lower"),
    ("experiments.shard.run_max_wall_s", "s", "lower"),
    ("experiments.shard.transport_max_wall_s", "s", "lower"),
    ("experiments.shard.shm_frames", "count", "lower"),
    ("experiments.shard.pipe_frames", "count", "lower"),
    ("experiments.shard.shm_fallback_frames", "count", "lower"),
    ("experiments.shard.integrity_spills", "count", "lower"),
    ("experiments.shard.serial_fallbacks", "count", "lower"),
    ("experiments.shard.extra_events", "count", "lower"),
    ("experiments.pool.jobs2_speedup", "ratio", "higher"),
    ("serve.ping_ms_p50", "ms", "lower"),
    ("serve.query_ms_p95", "ms", "lower"),
    ("serve.exec_ms_p50", "ms", "lower"),
    ("serve.exec_ms_p95", "ms", "lower"),
    ("serve.queue_ms_p50", "ms", "lower"),
    ("serve.slice_wall_ms_p50", "ms", "lower"),
    ("serve.slice_wall_ms_p95", "ms", "lower"),
    ("serve.slices", "count", "lower"),
    ("serve.rejected", "count", "lower"),
    ("serve.evicted", "count", "lower"),
    ("serve.published", "count", "lower"),
    ("serve.delivered", "count", "lower"),
    ("serve.stream_lag_ms_p95", "ms", "lower"),
    ("serve.episode_s_p50", "s", "lower"),
    ("serve.http_metrics_ms_p50", "ms", "lower"),
    ("serve.diagnose_now_ms", "ms", "lower"),
    ("serve.admit_ns", "ns", "lower"),
    ("serve.publish_us_sub200", "us", "lower"),
    ("serve.gen_late_ms_p95", "ms", "lower"),
    ("fuzz.genome_build_ms_p50", "ms", "lower"),
    ("fuzz.observe_ms_p50", "ms", "lower"),
    ("fuzz.retained", "count", "higher"),
    ("fuzz.findings", "count", "higher"),
    ("fuzz.jobs2_speedup", "ratio", "higher"),
    ("obs.trace_on_ratio", "ratio", "lower"),
    ("obs.spans", "count", "lower"),
    ("bench.trace_overhead_ratio", "ratio", "lower"),
    ("bench.cpu_count", "count", "higher"),
    ("bench.speed_factor", "ratio", "higher"),
]

UNITS: Dict[str, str] = {name: unit for name, unit, _b, _d in END_TO_END}
UNITS.update({name: unit for name, unit, _b in PER_LAYER})
