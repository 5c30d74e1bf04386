"""Worker supervision: watchdog, serial rerun, and leak-free cleanup.

The chaos contract for the parallel planes: a shard worker that dies
(SIGKILL) or hangs must never hang the parent, never strand a
``/dev/shm`` segment or a child process, and never produce a *wrong*
full-confidence verdict.  A lost worker has one answer: the parent
terminates the fleet and reruns serially (byte-identical result).
"""

import glob
import multiprocessing
import time

import pytest

from repro.experiments import (
    RunConfig,
    ScenarioSpec,
    run_scenario,
    run_scenario_sharded,
)
from repro.experiments import shardrun, supervise

pytestmark = pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(),
    reason="shard supervision tests need the fork start method",
)

SPEC = ScenarioSpec("pfc-storm", seed=7)


def _diagnoses(result):
    return [
        o.diagnosis.describe() if o.diagnosis is not None else None
        for o in result.outcomes
    ]


@pytest.fixture
def abort_hook():
    """Install a worker-abort hook for the test, always uninstall after."""

    def install(fn):
        shardrun._TEST_WORKER_ABORT = fn

    yield install
    shardrun._TEST_WORKER_ABORT = None


@pytest.fixture
def leak_check():
    """Assert no shm segments and no orphaned children survive the test."""
    before = set(glob.glob("/dev/shm/*"))
    yield
    # join_all: any worker the runner failed to reap would show up here.
    assert multiprocessing.active_children() == []
    assert set(glob.glob("/dev/shm/*")) - before == set()


class TestSerialFallback:
    def test_sigkilled_worker_falls_back_byte_identical(
        self, abort_hook, leak_check
    ):
        """SIGKILL mid-run -> serial rerun, identical diagnoses, no leaks."""
        serial = run_scenario(SPEC.build(), RunConfig())
        abort_hook(lambda sid, ep: "sigkill" if (sid == 1 and ep == 3) else None)
        result = run_scenario_sharded(SPEC, RunConfig(shards=2))
        assert _diagnoses(result) == _diagnoses(serial)
        supervision = result.perf.supervision
        assert supervision["fallback_ran"] == "serial"
        assert supervision["lost_shards"] == [1]
        assert supervision["failure_kind"] == "worker"

    def test_worker_killed_before_first_barrier_leaves_no_segment(
        self, abort_hook, leak_check
    ):
        """The fork-to-first-barrier window must not strand the segment."""
        serial = run_scenario(SPEC.build(), RunConfig())
        abort_hook(lambda sid, ep: "sigkill" if (sid == 0 and ep == 0) else None)
        result = run_scenario_sharded(SPEC, RunConfig(shards=2))
        assert _diagnoses(result) == _diagnoses(serial)
        assert result.perf.supervision["fallback_ran"] == "serial"

    def test_hung_worker_is_bounded_by_watchdog(
        self, abort_hook, leak_check, monkeypatch
    ):
        """A wedged worker ends the run within the timeout, not never."""
        serial = run_scenario(SPEC.build(), RunConfig())
        abort_hook(lambda sid, ep: "hang" if (sid == 1 and ep == 5) else None)
        monkeypatch.setattr(supervise, "DEFAULT_SHARD_TIMEOUT_S", 2.0)
        start = time.monotonic()
        result = run_scenario_sharded(SPEC, RunConfig(shards=2))
        # Watchdog (2 s) + serial rerun; generous bound for slow CI.
        assert time.monotonic() - start < 60
        assert _diagnoses(result) == _diagnoses(serial)
        assert result.perf.supervision["fallback_ran"] == "serial"
        assert result.perf.supervision["timeout_s"] == 2.0

    def test_cli_run_says_when_the_fallback_ran(
        self, abort_hook, leak_check, monkeypatch, capsys, tmp_path
    ):
        """A lost shard is a stderr line and a counter, not a silent rerun."""
        import json
        import os

        from repro.cli import main

        monkeypatch.setattr(os, "cpu_count", lambda: 2)
        abort_hook(lambda sid, ep: "sigkill" if (sid == 1 and ep == 3) else None)
        metrics_json = tmp_path / "metrics.json"
        main(["run", "pfc-storm", "--seed", "7", "--shards", "2",
              "--metrics-json", str(metrics_json)])
        err = capsys.readouterr().err
        assert "warning: shard 1 lost (worker); serial fallback ran" in err
        counters = json.loads(metrics_json.read_text())["counters"]
        assert counters["shard.fallbacks"] == 1



class TestWatchdogDeadline:
    def test_deadline_is_read_at_call_time(self, monkeypatch):
        """No knob: the one deadline is the module constant, read per run."""
        assert supervise.DEFAULT_SHARD_TIMEOUT_S == 60.0
        monkeypatch.setattr(supervise, "DEFAULT_SHARD_TIMEOUT_S", 30.0)
        result = run_scenario_sharded(SPEC, RunConfig(shards=2))
        assert result.perf.shards == 2
        assert result.perf.supervision == {"timeout_s": 30.0}
