"""Monitoring is a pure observer: diagnoses are byte-identical with the
monitor on or off, and the monitor's own outputs are a pure function of
the scenario seed."""

import pytest

from repro.experiments import RunConfig, run_scenario
from repro.monitor import MonitorConfig, jsonl_snapshot, prometheus_text
from repro.workloads import SCENARIO_BUILDERS

SCENARIOS = sorted(SCENARIO_BUILDERS)


def diagnoses_text(result):
    return "\n".join(
        o.diagnosis.describe()
        for o in result.outcomes
        if o.diagnosis is not None
    )


class TestPureObserver:
    @pytest.mark.parametrize("name", SCENARIOS)
    def test_monitor_never_changes_the_diagnosis(self, name):
        off = run_scenario(SCENARIO_BUILDERS[name](seed=1), RunConfig())
        on = run_scenario(
            SCENARIO_BUILDERS[name](seed=1),
            RunConfig(monitor=MonitorConfig()),
        )
        assert diagnoses_text(on) == diagnoses_text(off)
        assert [str(o.victim) for o in on.outcomes] == [
            str(o.victim) for o in off.outcomes
        ]

    def test_monitor_does_not_perturb_trace_output(self, tmp_path):
        """Even the pipeline-plane trace stays byte-identical: the sampler
        reads sim state but never reorders or injects pipeline events."""
        from repro.obs import ObsConfig

        def run_traced(path, monitor):
            scenario = SCENARIO_BUILDERS["pfc-storm"](seed=1)
            run_scenario(
                scenario,
                RunConfig(
                    obs=ObsConfig(trace=True, jsonl_path=str(path)),
                    monitor=monitor,
                ),
            )
            return path.read_bytes()

        without = run_traced(tmp_path / "off.jsonl", None)
        with_monitor = run_traced(tmp_path / "on.jsonl", MonitorConfig())
        assert with_monitor == without


class TestSeededReproducibility:
    def test_same_seed_same_monitor_output(self):
        def snapshot(seed):
            result = run_scenario(
                SCENARIO_BUILDERS["pfc-storm"](seed=seed),
                RunConfig(monitor=MonitorConfig()),
            )
            monitor = result.monitor
            return (
                prometheus_text(monitor),
                "\n".join(jsonl_snapshot(monitor)),
                monitor.timeline.describe(),
            )

        assert snapshot(1) == snapshot(1)

    def test_different_seed_different_fabric(self):
        a = run_scenario(
            SCENARIO_BUILDERS["incast-backpressure"](seed=1),
            RunConfig(monitor=MonitorConfig()),
        )
        b = run_scenario(
            SCENARIO_BUILDERS["incast-backpressure"](seed=2),
            RunConfig(monitor=MonitorConfig()),
        )
        # Seeds shift flow placement; the sketched flow keys must differ.
        assert prometheus_text(a.monitor) != prometheus_text(b.monitor)
