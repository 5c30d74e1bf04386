"""CLI tests (``python -m repro``)."""

import pytest

from repro.cli import main


class TestList:
    def test_list_prints_scenarios(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "incast-backpressure" in out
        assert "pfc-storm" in out


class TestRun:
    def test_run_storm_correct(self, tmp_path, capsys):
        import json

        metrics = tmp_path / "metrics.json"
        rc = main(["run", "pfc-storm", "--seed", "1", "--metrics-json", str(metrics)])
        out = capsys.readouterr().out
        assert rc == 0
        assert "pfc-storm" in out
        assert "CORRECT" in out
        assert json.loads(metrics.read_text())["counters"]["sim.events_run"] > 0

    def test_run_with_baseline_system(self, capsys):
        rc = main(["run", "pfc-storm", "--system", "spidermon"])
        out = capsys.readouterr().out
        assert rc != 0  # SpiderMon cannot diagnose a storm
        assert "system   : spidermon" in out

    def test_run_writes_dot(self, tmp_path, capsys):
        dot = tmp_path / "graph.dot"
        rc = main(["run", "incast-backpressure", "--dot", str(dot)])
        assert rc == 0
        assert dot.read_text().startswith("digraph")

    def test_unknown_scenario_rejected(self):
        with pytest.raises(SystemExit):
            main(["run", "nope"])

    def test_threshold_flag(self, capsys):
        rc = main(["run", "normal-contention", "--threshold", "2.0"])
        assert rc == 0


class TestArgumentValidation:
    """Non-positive numeric knobs die with an argparse error, not a
    downstream traceback."""

    @pytest.mark.parametrize("argv", [
        ["run", "pfc-storm", "--threshold", "0"],
        ["run", "pfc-storm", "--threshold", "-1.5"],
        ["run", "pfc-storm", "--epoch-us", "0"],
        ["run", "pfc-storm", "--epoch-us", "-10"],
        ["sweep", "pfc-storm", "--seeds", "0"],
        ["sweep", "pfc-storm", "--seeds", "-2"],
        ["sweep", "pfc-storm", "--jobs", "0"],
        ["sweep", "pfc-storm", "--jobs", "-1"],
        ["sweep", "pfc-storm", "--epochs-us", "0"],
        ["sweep", "pfc-storm", "--thresholds", "-3"],
        ["chaos", "--loss-rates", "1.5"],
        ["chaos", "--loss-rates", "-0.1"],
        ["fuzz", "--budget", "0"],
        ["fuzz", "--budget", "-5"],
        ["fuzz", "--jobs", "0"],
        ["fuzz", "--jobs", "-1"],
        ["fuzz", "--generation", "0"],
    ])
    def test_non_positive_rejected(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "must be" in err or "invalid" in err

    @pytest.mark.parametrize("argv", [
        ["sweep", "pfc-storm", "--seeds", "two"],
        ["run", "pfc-storm", "--threshold", "high"],
        ["fuzz", "--seed", "many"],
    ])
    def test_non_numeric_rejected(self, argv):
        with pytest.raises(SystemExit):
            main(argv)


class TestFuzzValidation:
    """``fuzz`` knobs fail fast: 32-bit seed range, sane corpus paths."""

    @pytest.mark.parametrize("value", ["-1", str(2**32), str(2**40)])
    def test_seed_out_of_range_rejected(self, value, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["fuzz", "--seed", value])
        assert exc.value.code == 2
        assert "seed must be in [0, 2**32)" in capsys.readouterr().err

    def test_corpus_path_is_a_file(self, tmp_path, capsys):
        blocker = tmp_path / "corpus"
        blocker.write_text("not a directory\n")
        with pytest.raises(SystemExit) as exc:
            main(["fuzz", "--corpus", str(blocker)])
        assert exc.value.code == 2
        assert "not a directory" in capsys.readouterr().err

    def test_corpus_parent_missing(self, tmp_path, capsys):
        orphan = tmp_path / "no" / "such" / "corpus"
        with pytest.raises(SystemExit) as exc:
            main(["fuzz", "--corpus", str(orphan)])
        assert exc.value.code == 2
        assert "parent directory does not exist" in capsys.readouterr().err

    def test_fresh_corpus_dir_in_existing_parent_ok(self, tmp_path, capsys):
        corpus = tmp_path / "corpus"
        rc = main(["fuzz", "--budget", "1", "--corpus", str(corpus)])
        assert rc in (0, 3)
        assert corpus.is_dir()


class TestChaos:
    def test_chaos_single_cell(self, capsys):
        rc = main(["chaos", "incast-backpressure", "--loss-rates", "0.1"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "incast-backpressure" in out
        assert "1 cells" in out
        assert "0 crashed" in out

    def test_chaos_no_retries(self, capsys):
        rc = main(["chaos", "incast-backpressure",
                   "--loss-rates", "0.1", "--no-retries"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "retries off" in out

    def test_chaos_json_output(self, tmp_path, capsys):
        path = tmp_path / "chaos.json"
        rc = main(["chaos", "normal-contention",
                   "--loss-rates", "0.05", "--json", str(path)])
        assert rc == 0
        import json

        payload = json.loads(path.read_text())
        assert payload["summary"]["cells"] == 1
        assert payload["cells"][0]["scenario"] == "normal-contention"

    def test_chaos_unknown_scenario(self, capsys):
        rc = main(["chaos", "no-such-scenario"])
        assert rc == 2
        assert "unknown scenario" in capsys.readouterr().err


class TestShards:
    """``--shards`` validation: reject non-positive, clamp with warnings."""

    @pytest.mark.parametrize("value", ["0", "-2"])
    def test_non_positive_rejected(self, value, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["run", "pfc-storm", "--shards", value])
        assert exc.value.code == 2
        assert "must be" in capsys.readouterr().err

    def test_clamped_to_cpu_count(self, monkeypatch, capsys):
        import os

        monkeypatch.setattr(os, "cpu_count", lambda: 1)
        rc = main(["run", "incast-backpressure", "--shards", "8"])
        captured = capsys.readouterr()
        assert rc == 0
        assert "exceeds the 1 available CPU" in captured.err
        # Clamped all the way to 1: the in-process engine, no shard banner.
        assert "worker processes" not in captured.out

    def test_clamped_to_pod_groups(self, monkeypatch, capsys):
        import os

        monkeypatch.setattr(os, "cpu_count", lambda: 64)
        rc = main(["run", "incast-backpressure", "--shards", "32"])
        captured = capsys.readouterr()
        assert rc == 0
        assert "partitionable pod group" in captured.err
        assert "worker processes" in captured.out
        assert "CORRECT" in captured.out

    def test_sharded_run_diagnoses(self, monkeypatch, capsys):
        import os

        monkeypatch.setattr(os, "cpu_count", lambda: 2)
        rc = main(["run", "incast-backpressure", "--shards", "2"])
        captured = capsys.readouterr()
        assert rc == 0
        assert "shards   : 2 worker processes" in captured.out
        assert "CORRECT" in captured.out

    def test_config_the_engine_does_not_take_runs_serially(
        self, monkeypatch, capsys
    ):
        """``--system full-polling --shards 2`` used to print the shard
        banner and then a ValueError traceback; it is the serial run plus
        one note."""
        import os

        monkeypatch.setattr(os, "cpu_count", lambda: 2)
        argv = ["run", "pfc-storm", "--system", "full-polling"]
        plain_rc = main(argv)
        plain = capsys.readouterr()
        rc = main(argv + ["--shards", "2"])
        captured = capsys.readouterr()
        assert captured.err == (
            "note: --shards 2 not used: a collect-everywhere system; "
            "ran on the serial engine\n"
        )
        assert "shards   :" not in captured.out
        assert (rc, captured.out) == (plain_rc, plain.out)


CONFIG_FIELDS = {
    "EcnConfig": {"kmin_bytes", "kmax_bytes"},
    "FaultPlan": {
        "seed", "polling_loss_rate", "polling_corrupt_rate",
        "report_loss_rate", "report_truncate_rate", "report_delay_rate",
        "dma_failure_rate", "dma_stale_rate", "agent_restart_rate",
        "clock_skew_max_ns",
    },
    "FuzzConfig": {"budget", "seed", "jobs", "generation"},
    "MonitorConfig": {"interval_ns"},
    "ObsConfig": {"trace", "jsonl_path", "sim_events"},
    "PfcConfig": {"xoff_bytes", "xon_bytes"},
    "PollingConfig": {"trace_pfc", "use_meters"},
    "ProbeMeshConfig": {"interval_ns"},
    "RunConfig": {
        "system", "epoch_size_ns", "threshold_multiplier", "flow_slots",
        "exclude_paused_in_contention", "use_meters", "faults", "retry",
        "obs", "monitor", "shards",
    },
    "ServeConfig": {
        "scenario", "seed", "episodes", "slice_us", "interval_us",
        "tenant_rate_per_s", "tenant_burst", "sub_queue",
    },
    "ShardPlan": {
        "shards", "requested_shards", "assignment", "groups", "cut_links",
        "lookahead_ns",
    },
    "SimConfig": {"pfc", "ecn", "seed"},
    "TelemetryConfig": {"scheme", "flow_slots"},
    "WatchdogConfig": {"poll_interval_ns", "priority"},
}

# Every subcommand's flags, ``-h``/``--help`` aside.
SUBCOMMAND_OPTIONS = {
    "list": set(),
    "run": {
        "--seed", "--system", "--epoch-us", "--threshold", "--dot",
        "--metrics-json", "--shards",
    },
    "trace": {
        "--scenario", "--seed", "--jsonl", "--max-lines", "--metrics-json",
        "--sim-events",
    },
    "monitor": {
        "--scenario", "--seed", "--interval-us", "--prom", "--jsonl", "--html",
        "--metrics-json", "--trace",
    },
    "sweep": {
        "--seeds", "--systems", "--epochs-us", "--thresholds", "--jobs", "--csv",
    },
    "chaos": {"--loss-rates", "--chaos-seed", "--no-retries", "--json"},
    "fuzz": {
        "--budget", "--seed", "--jobs", "--generation", "--corpus", "--minimize",
    },
    "serve": {
        "--seed", "--episodes", "--slice-us", "--interval-us", "--tenant-rate",
        "--tenant-burst", "--sub-queue", "--host", "--port", "--unix",
    },
}


class TestOptionsCensus:
    """Every knob is a cost (ROADMAP aim 2).  The sets are literal so the
    next env name, config field or subcommand flag is a diff in review."""

    def test_analyzer_jobs_flag_is_gone(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["run", "pfc-storm", "--analyzer-jobs", "2"])
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err

    def test_env_names_read_in_src(self):
        import pathlib
        import re

        root = pathlib.Path(__file__).resolve().parents[1]
        found = set()
        for tree in ("src/repro", "benchmarks", "examples"):
            for path in (root / tree).rglob("*.py"):
                found.update(re.findall(r"REPRO_[A-Z0-9_]+", path.read_text()))
        assert found == {"REPRO_BENCH_SEEDS"}

    def test_config_fields(self):
        """Every ``*Config``/``*Policy``/``*Plan`` dataclass in the package,
        found by walking it, so a new class is in the diff too."""
        import dataclasses
        import importlib
        import pkgutil

        import repro

        found = {}
        for info in pkgutil.walk_packages(repro.__path__, "repro."):
            if info.name.endswith(".__main__"):
                continue
            module = importlib.import_module(info.name)
            for name, obj in vars(module).items():
                if (
                    isinstance(obj, type)
                    and obj.__module__ == module.__name__
                    and dataclasses.is_dataclass(obj)
                    and name.endswith(("Config", "Policy", "Plan"))
                ):
                    assert name not in found, f"two classes named {name}"
                    found[name] = {f.name for f in dataclasses.fields(obj)}
        assert found == CONFIG_FIELDS
        # ShardPlan is a partition record the engine computes, not options.
        options = [f for name, f in found.items() if name != "ShardPlan"]
        assert (len(options), sum(map(len, options))) == (13, 51)

    def test_chaos_shards_flag_is_gone(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["chaos", "pfc-storm", "--shards", "2"])
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err

    def test_subcommand_options(self):
        import argparse

        from repro.cli import _build_parser

        subparsers = next(
            a for a in _build_parser()._actions
            if isinstance(a, argparse._SubParsersAction)
        )
        found = {
            command: {
                opt for action in parser._actions
                for opt in action.option_strings
            } - {"-h", "--help"}
            for command, parser in subparsers.choices.items()
        }
        assert found == SUBCOMMAND_OPTIONS
