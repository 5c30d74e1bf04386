"""Determinism regression tests: repeated and parallel runs are identical.

The whole diagnosis pipeline must be a pure function of (scenario builder,
seed): the simulator breaks timestamp ties in schedule order, FlowKey
hashes with a process-independent CRC32, and the parallel runner rebuilds
each scenario from its spec inside the worker.  These tests pin that down
so a future "optimization" cannot quietly introduce run-to-run jitter.
"""

import multiprocessing
import os
import signal
import time
from concurrent.futures.process import BrokenProcessPool

import pytest

from repro.experiments import (
    RunConfig,
    ScenarioSpec,
    fork_map,
    run_scenario,
    run_scenarios_parallel,
)
from repro.workloads import SCENARIO_BUILDERS

SCENARIO = "incast-backpressure"


def _run_once(seed=1):
    scenario = SCENARIO_BUILDERS[SCENARIO](seed=seed)
    result = run_scenario(scenario, RunConfig())
    diagnosis = result.diagnosis()
    return {
        "describe": diagnosis.describe() if diagnosis else None,
        "events_run": result.events_run,
        "collected": result.collected_switches,
        "processing": result.processing_bytes,
        "bandwidth": result.bandwidth_bytes,
        "coverage": result.causal_coverage,
    }


class TestSerialDeterminism:
    def test_same_seed_twice_is_identical(self):
        assert _run_once(seed=1) == _run_once(seed=1)

    def test_different_seeds_still_diagnose(self):
        a = _run_once(seed=1)
        b = _run_once(seed=2)
        assert a["describe"] is not None and b["describe"] is not None
        assert a["coverage"] == b["coverage"] == 1.0


class TestParallelDeterminism:
    def test_parallel_runner_matches_serial(self):
        specs = [ScenarioSpec(SCENARIO, seed=s) for s in (1, 2)]
        serial = run_scenarios_parallel(specs, jobs=1)
        parallel = run_scenarios_parallel(specs, jobs=2)
        for a, b in zip(serial, parallel):
            assert a.spec == b.spec
            assert a.diagnosis_text == b.diagnosis_text
            assert a.events_run == b.events_run
            assert a.correct == b.correct
            assert a.causal_coverage == b.causal_coverage
            assert a.processing_bytes == b.processing_bytes
            assert a.bandwidth_bytes == b.bandwidth_bytes

    def test_parallel_matches_direct_run_scenario(self):
        spec = ScenarioSpec(SCENARIO, seed=1)
        (summary,) = run_scenarios_parallel([spec], jobs=2)
        direct = _run_once(seed=1)
        assert summary.diagnosis_text == direct["describe"]
        assert summary.events_run == direct["events_run"]

    def test_results_come_back_in_spec_order(self):
        specs = [ScenarioSpec(SCENARIO, seed=s) for s in (3, 1, 2)]
        summaries = run_scenarios_parallel(specs, jobs=2)
        assert [s.spec.seed for s in summaries] == [3, 1, 2]


def _sleep_then_pid(delay_s):
    time.sleep(delay_s)
    return delay_s, os.getpid()


def _raise_lookup_error(item):
    raise LookupError(f"no such item: {item}")


def _die_on_zero(item):
    if item == 0:
        os.kill(os.getpid(), signal.SIGKILL)
    return item


class TestForkMap:
    """The one pool under ``--jobs``: order-stable, in-process when there
    is nothing to fan out, loud when a worker raises or dies."""

    def test_results_in_item_order_when_first_finishes_last(self):
        delays = [0.4, 0.0, 0.0]
        results = fork_map(_sleep_then_pid, delays, jobs=2)
        assert [delay for delay, _ in results] == delays
        assert all(pid != os.getpid() for _, pid in results)

    @pytest.mark.parametrize(
        "items, jobs", [([0.0, 0.0, 0.0], 1), ([0.0], 4), ([], 4)]
    )
    def test_runs_in_process_without_a_pool(self, items, jobs):
        results = fork_map(_sleep_then_pid, iter(items), jobs)
        assert results == [(0.0, os.getpid())] * len(items)
        assert multiprocessing.active_children() == []

    def test_worker_exception_is_reraised_with_its_type(self):
        with pytest.raises(LookupError, match="no such item"):
            fork_map(_raise_lookup_error, [1, 2, 3], jobs=2)

    def test_killed_worker_raises_broken_pool_instead_of_hanging(self):
        # A hang here is what CI's ``--timeout`` turns into a failure.
        with pytest.raises(BrokenProcessPool):
            fork_map(_die_on_zero, [0, 1, 2, 3], jobs=2)


class TestRemovedParameters:
    """The analyzer pool and report shipping are gone, not ignored."""

    def test_run_config_has_no_analyzer_jobs(self):
        with pytest.raises(TypeError):
            RunConfig(analyzer_jobs=2)

    def test_parallel_runner_has_no_ship_reports(self):
        specs = [ScenarioSpec(SCENARIO, seed=1)]
        with pytest.raises(TypeError):
            run_scenarios_parallel(specs, ship_reports=True)
