"""Performance regression gate for the simulator hot path.

Runs the K=4 and K=6 fat-tree incast workloads (the heaviest tier-1
scenarios), checks the diagnosis is byte-identical to the pre-optimization
baseline, and writes ``BENCH_perf.json`` at the repo root with
before/after events-per-second so every optimization PR leaves a paper
trail.

Assertions are two-tier:

- always: the diagnosis fingerprint must match the recorded baseline
  exactly, and throughput must beat a generous floor (regressing below
  the *unoptimized* engine is a hard failure on any machine);
- with ``REPRO_PERF_STRICT=1``: the full >=2x speedup contract is
  enforced (meant for the machine class the baseline was recorded on).
"""

import gc
import os
import time
from pathlib import Path

import pytest

from conftest import print_table
from repro.experiments import (
    BENCH_PERF_FILENAME,
    RunConfig,
    ScenarioSpec,
    load_bench_json,
    run_scenario,
    run_scenarios_parallel,
    write_bench_json,
)
from repro.obs import ObsConfig
from test_scaling import incast_on_fat_tree

REPO_ROOT = Path(__file__).resolve().parent.parent
STRICT = os.environ.get("REPRO_PERF_STRICT", "") == "1"

# Seed-state numbers measured on the unoptimized engine (lazy-cancellation
# binary heap, per-packet closures, no caches), same machine class as CI.
BASELINE = {
    4: {
        "wall_s": 1.201,
        "events_run": 88023,
        "events_per_sec": 73282,
        "fingerprint": (
            "Diagnosis for victim 10.0.1.2:12000->10.0.0.3:4791/17:\n"
            "  [1] pfc-backpressure-flow-contention (root cause: flow-contention); "
            "initial congestion at E0_0.P3; PFC path: E0_1.P1 -> A0_0.P1 -> E0_0.P3; "
            "culprits: 10.2.0.2:11004->10.0.0.2:4791/17 (w=21.33), "
            "10.2.0.3:11005->10.0.0.2:4791/17 (w=17.35), "
            "10.1.1.2:11002->10.0.0.2:4791/17 (w=14.54)"
        ),
    },
    6: {
        "wall_s": 1.818,
        "events_run": 154361,
        "events_per_sec": 84927,
        "fingerprint": (
            "Diagnosis for victim 10.0.1.2:12000->10.0.0.3:4791/17:\n"
            "  [1] pfc-backpressure-flow-contention (root cause: flow-contention); "
            "initial congestion at E0_0.P4; PFC path: E0_1.P1 -> A0_0.P1 -> E0_0.P4; "
            "culprits: 10.2.0.2:11009->10.0.0.2:4791/17 (w=158.83), "
            "10.2.0.3:11010->10.0.0.2:4791/17 (w=60.23), "
            "10.1.1.2:11005->10.0.0.2:4791/17 (w=41.11), "
            "10.2.0.2:11008->10.0.0.2:4791/17 (w=36.71)"
        ),
    },
}

# Floors that hold on any machine CI might land on; the real contract
# (>=2x over baseline) is enforced under REPRO_PERF_STRICT=1.
FLOOR_SPEEDUP = 1.2
STRICT_SPEEDUP = 2.0


def _best_of(n, k):
    """Best wall-clock of ``n`` runs (the first also pays warmup costs).

    Only the perf record, fingerprint and coverage survive each run: a
    retained RunResult keeps the whole simulated fabric alive, and that
    object graph slows GC passes inside the next timed run.
    """
    best = None
    for _ in range(n):
        scenario = incast_on_fat_tree(k)
        gc.collect()
        result = run_scenario(scenario, RunConfig())
        sample = (result.perf, result.diagnosis().describe(), result.causal_coverage)
        del scenario, result
        if best is None or sample[0].wall_s < best[0].wall_s:
            best = sample
    return best


@pytest.mark.benchmark(group="perf")
def test_incast_speedup_and_identical_diagnosis():
    rows = []
    runs = []
    for k in (4, 6):
        perf, fingerprint, coverage = _best_of(2, k)
        base = BASELINE[k]
        speedup = base["wall_s"] / perf.wall_s
        rows.append(
            (
                k,
                f"{base['wall_s']:.3f}",
                f"{perf.wall_s:.3f}",
                f"{speedup:.2f}x",
                f"{base['events_per_sec']:,}",
                f"{perf.events_per_sec:,.0f}",
                perf.peak_pending_events,
            )
        )
        runs.append(
            {
                "k": k,
                "baseline": {
                    "wall_s": base["wall_s"],
                    "events_run": base["events_run"],
                    "events_per_sec": base["events_per_sec"],
                },
                "current": perf.to_dict(),
                "speedup": round(speedup, 3),
                "diagnosis_matches_baseline": fingerprint == base["fingerprint"],
            }
        )
        # The optimization contract: faster, never different.
        assert fingerprint == base["fingerprint"], (
            f"K={k}: optimized run changed the diagnosis"
        )
        assert coverage == 1.0
        floor = STRICT_SPEEDUP if STRICT else FLOOR_SPEEDUP
        assert speedup >= floor, (
            f"K={k}: {speedup:.2f}x below the {floor}x "
            f"{'strict ' if STRICT else ''}floor "
            f"({perf.wall_s:.3f}s vs baseline {base['wall_s']:.3f}s)"
        )

    print_table(
        "Hot-path speedup vs pre-optimization baseline",
        ("K", "base wall", "wall", "speedup", "base ev/s", "ev/s", "peak queue"),
        rows,
    )
    # Merge so the telemetry benchmark's keys survive regardless of order.
    payload = load_bench_json(REPO_ROOT / BENCH_PERF_FILENAME) or {}
    payload["incast_speedup"] = runs
    write_bench_json(REPO_ROOT / BENCH_PERF_FILENAME, payload)


def _interleaved_best(configs, rounds=7):
    """Best ``(wall_s, diagnosis, alerts)`` per config over interleaved passes.

    The 5% gates below compare two arms' wall clocks.  Alternating the
    arms every pass puts both under the same machine drift, and the
    minimum over seven passes discards scheduler hiccups; one arm run to
    completion before the other lets drift alone cross 5%.
    """
    best = [None] * len(configs)
    for _ in range(rounds):
        for i, config in enumerate(configs):
            scenario = incast_on_fat_tree(4)
            gc.collect()
            result = run_scenario(scenario, config)
            alerts = len(result.monitor.alerts) if result.monitor else 0
            sample = (result.perf.wall_s, result.diagnosis().describe(), alerts)
            del scenario, result
            if best[i] is None or sample[0] < best[i][0]:
                best[i] = sample
    return best


@pytest.mark.benchmark(group="perf")
def test_obs_off_path_costs_nothing():
    """The observability layer's leave-it-compiled-in contract.

    Every pipeline stage carries tracing call sites guarded by a single
    ``obs is not None`` check.  With tracing off that guard is all a run
    pays, so a tracer-off run must not be measurably slower than a
    tracer-on run of the same scenario (the on run does strictly more
    work); 5% covers scheduler noise.  Both runs must produce the same
    diagnosis — the tracer is a pure observer.
    """
    (off_wall, off_diagnosis, _), (on_wall, on_diagnosis, _) = _interleaved_best(
        [RunConfig(), RunConfig(obs=ObsConfig(trace=True, sink="ring"))]
    )
    assert off_diagnosis == on_diagnosis
    overhead = off_wall / on_wall
    assert overhead <= 1.05, (
        f"tracer-off run slower than tracer-on ({off_wall:.3f}s vs "
        f"{on_wall:.3f}s): the disabled path is doing real work"
    )

    print_table(
        "Observability overhead (K=4 incast)",
        ("tracer", "wall", "vs on"),
        [
            ("off", f"{off_wall:.3f}", f"{overhead:.3f}x"),
            ("on (ring sink)", f"{on_wall:.3f}", "1.000x"),
        ],
    )
    payload = load_bench_json(REPO_ROOT / BENCH_PERF_FILENAME) or {}
    payload["obs_overhead"] = {
        "off_wall_s": round(off_wall, 4),
        "on_wall_s": round(on_wall, 4),
        "off_over_on": round(overhead, 4),
        "diagnosis_matches": off_diagnosis == on_diagnosis,
    }
    write_bench_json(REPO_ROOT / BENCH_PERF_FILENAME, payload)


@pytest.mark.benchmark(group="perf")
def test_monitor_overhead_bounded():
    """The continuous monitor's sampling-first contract.

    The monitor takes no per-packet hooks: everything except PFC frame
    counting is sampled once per tick from counters the simulator already
    maintains, so a monitor-on run may cost at most 5% over monitor-off
    at the default 100 us cadence — and the diagnosis must stay
    byte-identical (the monitor is a pure observer).  Writes the
    ``monitor_overhead`` record into ``BENCH_perf.json``.
    """
    from repro.monitor import MonitorConfig

    (off_wall, off_diagnosis, _), (on_wall, on_diagnosis, alerts) = (
        _interleaved_best([RunConfig(), RunConfig(monitor=MonitorConfig())])
    )
    assert on_diagnosis == off_diagnosis
    assert alerts > 0, "the monitored incast run must raise alerts"
    overhead = on_wall / off_wall
    assert overhead <= 1.05, (
        f"monitor-on run {overhead:.3f}x slower than monitor-off "
        f"({on_wall:.3f}s vs {off_wall:.3f}s): sampling left the "
        f"counters-only budget"
    )

    print_table(
        "Continuous-monitor overhead (K=4 incast, 100 us cadence)",
        ("monitor", "wall", "vs off"),
        [
            ("off", f"{off_wall:.3f}", "1.000x"),
            ("on", f"{on_wall:.3f}", f"{overhead:.3f}x"),
        ],
    )
    payload = load_bench_json(REPO_ROOT / BENCH_PERF_FILENAME) or {}
    payload["monitor_overhead"] = {
        "off_wall_s": round(off_wall, 4),
        "on_wall_s": round(on_wall, 4),
        "on_over_off": round(overhead, 4),
        "alerts": alerts,
        "diagnosis_matches": on_diagnosis == off_diagnosis,
    }
    write_bench_json(REPO_ROOT / BENCH_PERF_FILENAME, payload)


@pytest.mark.benchmark(group="perf")
def test_parallel_runner_matches_serial():
    """The process-pool runner is a pure speedup: summaries are identical."""
    specs = [ScenarioSpec("incast-backpressure", seed=s) for s in (1, 2)]
    t0 = time.perf_counter()
    serial = run_scenarios_parallel(specs, jobs=1)
    serial_wall = time.perf_counter() - t0
    parallel = run_scenarios_parallel(specs, jobs=2)
    assert len(serial) == len(parallel) == len(specs)
    for a, b in zip(serial, parallel):
        assert a.spec == b.spec
        assert a.diagnosis_text == b.diagnosis_text
        assert a.events_run == b.events_run
        assert a.correct and b.correct
        assert a.causal_coverage == b.causal_coverage
        assert a.processing_bytes == b.processing_bytes
        assert a.bandwidth_bytes == b.bandwidth_bytes
    # Not a wall-clock assertion (the container may have one core); just
    # record that the serial path itself stays fast.
    assert serial_wall < 60.0
