"""BENCHMARK.json against bench/metrics.py and the driver's limits."""

import json
import re

import metrics as metric_defs
from conftest import ROOT
from workloads import WORKLOADS

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def test_keys_and_limits():
    assert set(SPEC) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer",
    }
    assert SPEC["paths"] == ["bench"]
    assert SPEC["command"] == ["python3", "bench/run.py"]
    assert 1 <= SPEC["run_seconds"] <= 60
    runs = 4 + 22 * len(SPEC["workloads"])
    # Every run, with its set-up, has to fit the driver's total.
    assert runs * (SPEC["run_seconds"] + 12) <= 3420


def test_names_and_units_are_well_formed_and_unique():
    names = [
        entry["name"]
        for key in ("workloads", "end_to_end", "per_layer")
        for entry in SPEC[key]
    ]
    assert len(names) == len(set(names))
    assert all(NAME.match(name) for name in names)
    for key in ("end_to_end", "per_layer"):
        assert all(UNIT.match(entry["unit"]) for entry in SPEC[key])


def test_workloads_match_the_harness():
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)
    for entry in SPEC["workloads"]:
        assert set(entry) == {"name", "why"}
        assert entry["why"] == WORKLOADS[entry["name"]].WHY
        assert len(entry["why"]) <= 200 and "\n" not in entry["why"]


def test_metrics_match_the_harness_table():
    assert [
        (m["name"], m["unit"], m["better"], m["bound"]) for m in SPEC["end_to_end"]
    ] == metric_defs.END_TO_END
    assert [
        (m["name"], m["unit"], m["better"]) for m in SPEC["per_layer"]
    ] == metric_defs.PER_LAYER
    assert all(0 < m["bound"] <= 0.25 for m in SPEC["end_to_end"])
    setup = next(m for m in SPEC["end_to_end"] if m["name"] == "setup_s")
    assert setup["unit"] == "s" and setup["better"] == "lower"
    assert setup["bound"] == max(m["bound"] for m in SPEC["end_to_end"])
    assert len(SPEC["per_layer"]) <= 128 and len(SPEC["end_to_end"]) <= 16
