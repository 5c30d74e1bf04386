"""Runner tests: report selection, causal sets and full end-to-end runs."""

import pytest

from repro.baselines import SystemKind
from repro.core import AnomalyType
from repro.experiments import (
    RunConfig,
    ScenarioSpec,
    causal_switches_of,
    diagnosis_correct,
    run_scenario,
    run_scenarios_parallel,
    select_reports,
    summarize_run,
)
from repro.telemetry import SwitchReport
from repro.units import usec
from repro.workloads import (
    in_loop_deadlock_scenario,
    incast_backpressure_scenario,
    normal_contention_scenario,
    pfc_storm_scenario,
)

SCENARIO = "incast-backpressure"


class TestSelectReports:
    def reports(self):
        return [
            SwitchReport(switch="SW", collect_time=t) for t in (100, 500, 900)
        ]

    def test_prefers_first_report_after_trigger(self):
        chosen = select_reports(self.reports(), trigger_time=400)
        assert chosen["SW"].collect_time == 500

    def test_falls_back_to_recent_before(self):
        chosen = select_reports(self.reports(), trigger_time=1000, slack_ns=200)
        assert chosen["SW"].collect_time == 900

    def test_falls_back_to_latest_when_all_old(self):
        chosen = select_reports(self.reports(), trigger_time=10**9)
        assert chosen["SW"].collect_time == 900

    def test_multiple_switches_independent(self):
        reports = self.reports() + [SwitchReport(switch="SX", collect_time=50)]
        chosen = select_reports(reports, trigger_time=400)
        assert chosen["SX"].collect_time == 50
        assert chosen["SW"].collect_time == 500


class TestCausalSwitches:
    def test_incast_causal_set(self):
        sc = incast_backpressure_scenario(seed=1)
        causal = causal_switches_of(sc, sc.victims[0].key)
        assert "E0_0" in causal  # the initial congestion switch
        assert "E0_1" in causal  # the victim's ToR

    def test_deadlock_causal_set_includes_loop(self):
        sc = in_loop_deadlock_scenario(seed=1)
        causal = causal_switches_of(sc, sc.victims[0].key)
        assert {"SW1", "SW2", "SW3", "SW4"} <= causal


class TestEndToEnd:
    """One full run per anomaly class (the §4.2 headline result)."""

    @pytest.mark.parametrize(
        "builder,expected",
        [
            (incast_backpressure_scenario, AnomalyType.MICRO_BURST_INCAST),
            (pfc_storm_scenario, AnomalyType.PFC_STORM),
            (in_loop_deadlock_scenario, AnomalyType.IN_LOOP_DEADLOCK),
            (normal_contention_scenario, AnomalyType.NORMAL_CONTENTION),
        ],
    )
    def test_hawkeye_diagnoses_correctly(self, builder, expected):
        sc = builder(seed=1)
        result = run_scenario(sc, RunConfig())
        d = result.diagnosis()
        assert d is not None
        assert d.primary().anomaly is expected
        assert diagnosis_correct(d, sc.truth)

    def test_full_coverage_of_causal_switches(self):
        sc = in_loop_deadlock_scenario(seed=1)
        result = run_scenario(sc, RunConfig())
        assert result.causal_coverage == 1.0

    def test_victim_only_misses_deadlock(self):
        sc = in_loop_deadlock_scenario(seed=1)
        result = run_scenario(sc, RunConfig(system=SystemKind.VICTIM_ONLY))
        d = result.diagnosis()
        assert d is None or not diagnosis_correct(d, sc.truth)

    def test_spidermon_blind_to_pfc(self):
        sc = incast_backpressure_scenario(seed=1)
        result = run_scenario(sc, RunConfig(system=SystemKind.SPIDERMON))
        d = result.diagnosis()
        # Without PFC visibility SpiderMon can at best report plain queue
        # contention (or nothing at all) — never the PFC anomaly classes.
        assert d is None or d.primary().anomaly in (
            AnomalyType.NORMAL_CONTENTION,
            AnomalyType.UNKNOWN,
        )

    def test_hawkeye_collects_fewer_switches_than_full_polling(self):
        sc = incast_backpressure_scenario(seed=1)
        hawkeye = run_scenario(sc, RunConfig())
        full = run_scenario(
            incast_backpressure_scenario(seed=1),
            RunConfig(system=SystemKind.FULL_POLLING),
        )
        assert len(hawkeye.collected_switches) < len(full.collected_switches)
        assert hawkeye.causal_coverage == 1.0

    def test_overhead_accounting_positive(self):
        sc = incast_backpressure_scenario(seed=1)
        result = run_scenario(sc, RunConfig())
        assert result.processing_bytes > 0
        assert result.bandwidth_bytes > 0
        assert result.polling_packets > 0

    def test_netsight_overheads_dwarf_hawkeye(self):
        hawkeye = run_scenario(incast_backpressure_scenario(seed=1), RunConfig())
        netsight = run_scenario(
            incast_backpressure_scenario(seed=1),
            RunConfig(system=SystemKind.NETSIGHT),
        )
        assert netsight.processing_bytes > 10 * hawkeye.processing_bytes
        assert netsight.bandwidth_bytes > 10 * hawkeye.bandwidth_bytes

    def test_large_epoch_still_detects_anomaly_type_family(self):
        """Epoch-size sweep sanity: a 2 ms epoch may lose precision but the
        pipeline must still produce a diagnosis."""
        sc = incast_backpressure_scenario(seed=1)
        result = run_scenario(sc, RunConfig(epoch_size_ns=2 << 20))
        assert result.diagnosis() is not None


class TestSilentRun:
    """lordma-attack seed 11: no victim's RTT crosses the trigger, so the
    run ends with no diagnosis at all.  That is a wrong answer to score,
    not a crash."""

    SPEC = ScenarioSpec("lordma-attack", seed=11)

    def test_summarize_run_scores_it_incorrect(self):
        scenario = self.SPEC.build()
        result = run_scenario(scenario, RunConfig())
        assert result.diagnosis() is None
        summary = summarize_run(self.SPEC, scenario, result)
        assert summary.correct is False
        assert summary.diagnosis_text is None

    def test_parallel_runner_survives_it(self):
        specs = [self.SPEC, ScenarioSpec("lordma-attack", seed=1)]
        silent, loud = run_scenarios_parallel(specs, jobs=2)
        assert silent.correct is False and silent.diagnosis_text is None
        assert loud.diagnosis_text is not None


class TestRemovedParameters:
    """The analyzer pool and report shipping are gone, not ignored."""

    def test_parallel_runner_has_no_ship_reports(self):
        specs = [ScenarioSpec(SCENARIO, seed=1)]
        with pytest.raises(TypeError):
            run_scenarios_parallel(specs, ship_reports=True)
