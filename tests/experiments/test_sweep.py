"""Sweep utility tests: grid construction, running, CSV export."""

import io

import pytest

from repro.baselines import SystemKind
from repro.experiments import grid, run_sweep, write_csv
from repro.units import usec


class TestGrid:
    def test_cartesian_product(self):
        points = grid(
            scenarios=["a", "b"],
            systems=[SystemKind.HAWKEYE, SystemKind.SPIDERMON],
            epoch_sizes_ns=[1, 2, 3],
            thresholds=[2.0],
        )
        assert len(points) == 2 * 2 * 3 * 1

    def test_defaults(self):
        cells = grid(scenarios=["x"])
        assert len(cells) == 1
        assert cells[0][1].system is SystemKind.HAWKEYE

    def test_run_config_mapping(self):
        ((name, config),) = grid(
            ["s"], [SystemKind.PORT_ONLY], [usec(100)], [2.5]
        )
        assert name == "s"
        assert config.system is SystemKind.PORT_ONLY
        assert config.epoch_size_ns == usec(100)
        assert config.threshold_multiplier == 2.5


class TestRunSweep:
    def test_single_cell_sweep(self):
        cells = grid(scenarios=["pfc-storm"])
        results = run_sweep(cells, seeds=[1])
        assert len(results) == 1
        assert results[0].accuracy.total == 1
        assert results[0].accuracy.precision == 1.0
        assert results[0].summaries[0].processing_bytes > 0

    def test_multi_system_cells(self):
        cells = grid(
            scenarios=["pfc-storm"],
            systems=[SystemKind.HAWKEYE, SystemKind.SPIDERMON],
        )
        results = run_sweep(cells, seeds=[1])
        by_system = {r.config.system: r.accuracy.precision for r in results}
        assert by_system[SystemKind.HAWKEYE] > by_system[SystemKind.SPIDERMON]


class TestOutputs:
    def test_csv_round_shape(self):
        cells = grid(scenarios=["pfc-storm"])
        results = run_sweep(cells, seeds=[1])
        buffer = io.StringIO()
        rows = write_csv(results, buffer)
        assert rows == 1
        lines = buffer.getvalue().strip().splitlines()
        assert lines[0].startswith("scenario,system,epoch_ns")
        assert "pfc-storm" in lines[1]


class TestCliSweep:
    def test_cli_sweep_with_csv(self, tmp_path, capsys):
        from repro.cli import main

        out = tmp_path / "sweep.csv"
        rc = main(["sweep", "pfc-storm", "--seeds", "1", "--csv", str(out)])
        assert rc == 0
        assert out.read_text().count("\n") >= 2
        stdout = capsys.readouterr().out
        assert "sweeping 1 cells" in stdout

    def test_cli_prints_a_done_line_per_cell_in_cell_order(self, capsys):
        from repro.cli import main

        argv = ["sweep", "pfc-storm", "--systems", "hawkeye", "victim-only"]
        assert main(argv + ["--seeds", "1"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[:4] == [
            "sweeping 2 cells x 1 seeds ...",
            "  done: pfc-storm / hawkeye / epoch=1048576ns / thr=3.0",
            "  done: pfc-storm / victim-only / epoch=1048576ns / thr=3.0",
            "",
        ]
