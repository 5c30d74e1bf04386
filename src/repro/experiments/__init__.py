"""Experiment harness: runner, scoring and hardware models."""

from .hardware import (
    MemoryBreakdown,
    cpu_poll_time_ms,
    telemetry_memory,
    tofino_resource_usage,
    total_collection_time_ms,
)
from .metrics import AccuracyCounter, ScoreConfig, diagnosis_correct
from .perfstats import (
    BENCH_PERF_FILENAME,
    PerfStats,
    load_bench_json,
    write_bench_json,
)
from .runner import (
    FabricSession,
    RunConfig,
    RunResult,
    RunSummary,
    ScenarioSpec,
    VictimOutcome,
    causal_switches_of,
    diagnose_victims,
    run_scenario,
    run_scenarios_parallel,
    select_reports,
    summarize_run,
)
from .shardrun import run_scenario_sharded
from .supervise import fork_map

__all__ = [
    "MemoryBreakdown",
    "cpu_poll_time_ms",
    "telemetry_memory",
    "tofino_resource_usage",
    "total_collection_time_ms",
    "AccuracyCounter",
    "ScoreConfig",
    "diagnosis_correct",
    "BENCH_PERF_FILENAME",
    "PerfStats",
    "load_bench_json",
    "write_bench_json",
    "FabricSession",
    "RunConfig",
    "RunResult",
    "RunSummary",
    "ScenarioSpec",
    "VictimOutcome",
    "causal_switches_of",
    "diagnose_victims",
    "fork_map",
    "run_scenario",
    "run_scenario_sharded",
    "run_scenarios_parallel",
    "select_reports",
    "summarize_run",
]

from .analyzer import (  # noqa: E402  (appended exports)
    AnalyzerConfig,
    AnalyzerService,
    Incident,
    deploy_analyzer,
)

__all__ += [
    "AnalyzerConfig",
    "AnalyzerService",
    "Incident",
    "deploy_analyzer",
]

from .sweep import (  # noqa: E402  (appended exports)
    CSV_HEADER,
    SweepPoint,
    SweepResult,
    best_configuration,
    grid,
    run_sweep,
    write_csv,
)

__all__ += [
    "CSV_HEADER",
    "SweepPoint",
    "SweepResult",
    "best_configuration",
    "grid",
    "run_sweep",
    "write_csv",
]
