"""Import boundaries: importing a module costs that module and what it
uses, not its siblings (DESIGN.md, "Import boundaries").

Every check runs in a fresh interpreter, because this process imported
everything long ago, and compares module sets, never timings.
"""

import json
import os
import pathlib
import pkgutil
import subprocess
import sys

import pytest

import repro

REPO = pathlib.Path(__file__).resolve().parent.parent

PACKAGES = sorted(
    f"repro.{info.name}" for info in pkgutil.iter_modules(repro.__path__)
    if info.ispkg
)


def _fresh(code: str):
    """Run ``code`` in a new interpreter; returns the JSON it printed last."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO / "src")
    done = subprocess.run(
        [sys.executable, "-c", code], env=env, cwd=REPO,
        capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.splitlines()[-1])


def _modules_after(statement: str):
    return set(_fresh(
        f"import json, sys\n{statement}\nprint(json.dumps(sorted(sys.modules)))"
    ))


@pytest.mark.parametrize("statement, absent", [
    ("import repro.cli",
     {"numpy", "asyncio", "multiprocessing", "repro.sim"}),
    ("from repro.serve import ServeClient, http_get",
     {"numpy", "repro.sim", "repro.experiments", "repro.obs"}),
    ("from repro.experiments import run_scenario",
     {"multiprocessing", "concurrent.futures", "asyncio", "repro.serve",
      "repro.fuzz", "repro.experiments.shardrun", "repro.experiments.sweep"}),
])
def test_import_loads_no_sibling(statement, absent):
    assert _modules_after(statement) & absent == set()


def test_cli_imports_only_units():
    loaded = _modules_after("import repro.cli")
    assert {m for m in loaded if m.startswith("repro")} == {
        "repro", "repro.cli", "repro.units",
    }


@pytest.mark.parametrize("package", PACKAGES)
def test_every_export_resolves_and_survives_its_siblings(package):
    """Each ``__all__`` name resolves and is listed by ``dir()``, and stays
    the same object once every submodule of the package is loaded: a name
    that a submodule import could rebind would fail here."""
    problems = _fresh(f"""
import importlib, json, pkgutil, types
import {package} as package
exports = {{name: getattr(package, name) for name in package.__all__}}
for info in pkgutil.iter_modules(package.__path__):
    importlib.import_module("{package}." + info.name)
listed = set(dir(package))
print(json.dumps(sorted(
    name for name, value in exports.items()
    if name not in listed or getattr(package, name) is not value
    or isinstance(value, types.ModuleType)
)))
""")
    assert problems == []


def test_fuzz_functions_named_like_their_modules_stay_callable():
    assert _fresh("""
import json
import repro.fuzz
import repro.fuzz.minimize, repro.fuzz.mutate
print(json.dumps([callable(repro.fuzz.mutate), callable(repro.fuzz.minimize)]))
""") == [True, True]


def test_fork_map_workers_import_nothing_their_parent_did_not():
    """A module a ``--jobs`` worker imports is re-imported by every worker
    of every campaign; the parent must have loaded it before the fork."""
    gained = _fresh("""
import json, sys
import repro.experiments.runner as runner
from repro.experiments import ScenarioSpec, run_scenarios_parallel

def spy(item):
    work(item)
    return sorted(sys.modules)

work, runner._run_spec_worker = runner._run_spec_worker, spy
specs = [ScenarioSpec("pfc-storm", seed=seed) for seed in (1, 2)]
seen = run_scenarios_parallel(specs, jobs=2)
print(json.dumps(sorted(set().union(*seen) - set(sys.modules))))
""")
    assert gained == []
