"""A finished fabric gives its memory back.

A dropped fabric is one reference cycle; it is reclaimed when the next one
attaches (``HawkeyeDeployment.__init__``), and ``FabricSession.advance``
runs with automatic cycle sweeps off.  No test here collects by hand: the
point is that the code under test does.
"""

import gc
import subprocess
import sys
import textwrap
import weakref

import pytest

from repro.experiments import deploy_analyzer
from repro.experiments.runner import FabricSession, run_scenario
from repro.workloads import SCENARIO_BUILDERS

SCENARIO = "out-of-loop-deadlock"


def _attach_via_run_scenario(scenario):
    run_scenario(scenario)  # result dropped


def _attach_via_deploy_analyzer(scenario):
    deploy_analyzer(scenario.network)
    scenario.network.run(scenario.duration_ns // 8)


@pytest.mark.parametrize(
    "attach", [_attach_via_run_scenario, _attach_via_deploy_analyzer]
)
def test_every_fabric_but_the_newest_is_gone_after_the_next_attach(attach):
    networks = []
    for seed in range(1, 7):
        scenario = SCENARIO_BUILDERS[SCENARIO](seed=seed)
        networks.append(weakref.ref(scenario.network))
        attach(scenario)
        del scenario
        alive = [ref() is not None for ref in networks[:-1]]
        assert not any(alive), f"after attach {seed}: {alive}"


def test_first_attach_collects_nothing_and_n_attaches_collect_n_minus_1():
    """A one-shot ``repro run`` pays for no collection.  Automatic sweeps
    are off in the child, so every generation-2 pass it sees is explicit."""
    script = textwrap.dedent(
        f"""
        import gc
        from repro.experiments.runner import FabricSession
        from repro.workloads import SCENARIO_BUILDERS

        full = []
        gc.callbacks.append(
            lambda phase, info: full.append(1)
            if phase == "start" and info["generation"] == 2 else None
        )
        gc.disable()
        for seed in (1, 2, 3):
            FabricSession(SCENARIO_BUILDERS[{SCENARIO!r}](seed=seed))
            print(len(full))
        """
    )
    out = subprocess.run(
        [sys.executable, "-c", script], check=True, capture_output=True,
        text=True, timeout=120,
    ).stdout.split()
    assert out == ["0", "1", "2"]


class TestAdvanceRestoresTheCollectorSetting:
    @pytest.fixture(params=[True, False], ids=["gc-on", "gc-off"])
    def was_enabled(self, request):
        before = gc.isenabled()
        (gc.enable if request.param else gc.disable)()
        yield request.param
        (gc.enable if before else gc.disable)()

    def test_after_a_full_and_a_budgeted_advance(self, was_enabled):
        session = FabricSession(SCENARIO_BUILDERS[SCENARIO](seed=1))
        seen = []
        session.net.sim.schedule(1, lambda: seen.append(gc.isenabled()))
        session.advance(session.duration_ns // 2, 512)
        assert gc.isenabled() is was_enabled
        session.advance(session.duration_ns)
        assert gc.isenabled() is was_enabled
        assert seen == [False]  # off while the simulator runs

    def test_after_a_callback_raises_out_of_it(self, was_enabled):
        session = FabricSession(SCENARIO_BUILDERS[SCENARIO](seed=1))

        def boom():
            raise RuntimeError("boom")

        session.net.sim.schedule(1, boom)
        with pytest.raises(RuntimeError, match="boom"):
            session.advance(session.duration_ns)
        assert gc.isenabled() is was_enabled
