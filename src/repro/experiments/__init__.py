"""Experiment harness: runner, scoring and hardware models."""

from .. import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(globals(), {
    "analyzer": ("AnalyzerService", "Incident", "deploy_analyzer"),
    "hardware": (
        "MemoryBreakdown", "cpu_poll_time_ms", "telemetry_memory",
        "tofino_resource_usage", "total_collection_time_ms",
    ),
    "metrics": ("AccuracyCounter", "diagnosis_correct"),
    "perfstats": ("PerfStats",),
    "runner": (
        "FabricSession", "RunConfig", "RunResult", "RunSummary", "ScenarioSpec",
        "VictimOutcome", "causal_switches_of", "diagnose_victims",
        "run_scenario", "run_scenarios_parallel", "select_reports",
        "summarize_run",
    ),
    "shardrun": ("run_scenario_sharded",),
    "supervise": ("fork_map",),
    "sweep": (
        "CSV_HEADER", "SweepResult", "grid", "run_sweep", "write_csv",
    ),
})
