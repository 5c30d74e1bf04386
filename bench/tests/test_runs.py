"""The harness end to end: one smoke run, the bare-checkout refusal, the
server's reaping, and that a run leaves no process behind."""

import json
import os
import shutil
import subprocess
import sys

import metrics as metric_defs
from conftest import BENCH, ROOT

RUN = [sys.executable, str(BENCH / "run.py")]


def test_smoke_run_emits_every_declared_name_and_no_other():
    done = subprocess.run(
        RUN + ["--workload", "poll_heavy", "--smoke"],
        capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    line = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] is True and line["failed"] == 0
    assert line["attempted"] >= 1
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = {m["name"] for m in spec["end_to_end"] + spec["per_layer"]}
    assert set(line["metrics"]) == declared
    for name, entry in line["metrics"].items():
        assert entry["unit"] == metric_defs.UNITS[name]
    detail = json.loads((BENCH / "out" / "poll_heavy.smoke.json").read_text())
    assert detail["comparable"] is False
    # Polling reads are this workload's point: the memo caches must hit.
    assert line["metrics"]["telemetry.snapshot_hit_ratio"]["value"] > 0
    table = detail["budget"]
    assert abs(table["rows_sum_s"] - table["traced_wall_s"]) <= 0.02 * table["traced_wall_s"]


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    done = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "paper_mix", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert done.stdout.strip() == ""
    assert "missing" in done.stderr


def test_server_is_reaped_and_its_socket_dir_removed():
    from workloads.serve_queries import Server

    server = Server(seed=1)
    pid, directory = server.proc.pid, server.dir
    assert server.proc.poll() is None and os.path.isdir(directory)
    server.reap()
    assert server.proc.poll() is not None
    assert not os.path.exists(directory)
    server.reap()  # idempotent
    try:
        os.kill(pid, 0)
        alive = True
    except ProcessLookupError:
        alive = False
    assert not alive


def test_a_sharded_run_leaves_no_process_behind():
    """Shared memory makes multiprocessing start a resource tracker that
    exits only after its parent unless run.py ends it first."""
    import harness

    harness.adopt_orphans()  # an orphan of the run lands here, in sight
    done = subprocess.run(
        RUN + ["--setup-probe", "--workload", "fleet_sharded"],
        capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    assert harness._children() == []
