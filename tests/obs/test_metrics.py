"""MetricsRegistry unit tests: metric kinds, legacy absorption, export,
and the registry every run carries."""

import json

import pytest

from repro.experiments import RunConfig, run_scenario
from repro.obs import Histogram, MetricsRegistry
from repro.workloads import SCENARIO_BUILDERS


class TestMetricKinds:
    def test_counter_get_or_create_and_inc(self):
        reg = MetricsRegistry()
        reg.inc("polling.rounds")
        reg.inc("polling.rounds", 3)
        assert reg.counter_value("polling.rounds") == 4
        assert reg.counter("polling.rounds") is reg.counter("polling.rounds")

    def test_counter_value_defaults_to_zero(self):
        assert MetricsRegistry().counter_value("never.touched") == 0

    def test_gauge_last_write_wins(self):
        reg = MetricsRegistry()
        reg.gauge("run.wall_s").set(1.5)
        reg.gauge("run.wall_s").set(0.25)
        assert reg.gauge("run.wall_s").value == 0.25

    def test_histogram_summary(self):
        reg = MetricsRegistry()
        hist = reg.histogram("stage.simulate_s")
        for v in (2.0, 1.0, 4.0):
            hist.observe(v)
        assert hist.count == 3
        assert hist.min == 1.0 and hist.max == 4.0
        assert hist.mean == 7.0 / 3
        summary = hist.to_dict()
        assert summary["sum"] == 7.0 and summary["count"] == 3

    def test_empty_histogram_mean(self):
        assert MetricsRegistry().histogram("x").mean == 0.0


class TestAbsorbCounters:
    def test_absorbs_flat_ints_as_counters(self):
        reg = MetricsRegistry()
        reg.absorb_counters("agent", {"triggers": 4, "restarts": 1})
        assert reg.counter_value("agent.triggers") == 4
        assert reg.counter_value("agent.restarts") == 1

    def test_recurses_nested_mappings(self):
        reg = MetricsRegistry()
        reg.absorb_counters("cache", {"ecmp_select": {"hits": 10, "misses": 2}})
        assert reg.counter_value("cache.ecmp_select.hits") == 10
        assert reg.counter_value("cache.ecmp_select.misses") == 2

    def test_floats_become_gauges_bools_become_counters(self):
        reg = MetricsRegistry()
        reg.absorb_counters("run", {"wall_s": 0.5, "degraded": True})
        assert reg.gauge("run.wall_s").value == 0.5
        assert reg.counter_value("run.degraded") == 1
        assert reg.counter_value("run.wall_s") == 0  # not double-counted

    def test_absorb_accumulates_on_repeat(self):
        reg = MetricsRegistry()
        reg.absorb_counters("polling", {"packets_lost": 2})
        reg.absorb_counters("polling", {"packets_lost": 3})
        assert reg.counter_value("polling.packets_lost") == 5


class TestExport:
    def test_to_dict_is_sorted_and_json_ready(self):
        reg = MetricsRegistry()
        reg.inc("events.verdict")
        reg.inc("collector.epoch_reads", 2)
        reg.gauge("run.sim_ns").set(1e9)
        reg.histogram("stage.diagnose_s").observe(0.1)
        doc = reg.to_dict()
        assert list(doc) == ["counters", "gauges", "histograms"]
        assert list(doc["counters"]) == ["collector.epoch_reads", "events.verdict"]
        # Must round-trip through json (the --metrics-json export path).
        assert json.loads(json.dumps(doc)) == doc


class TestHistogramQuantiles:
    def test_empty_histogram_quantiles_are_none(self):
        h = Histogram()
        assert h.quantile(0.5) is None
        assert h.to_dict()["p50"] is None

    def test_quantile_rejects_out_of_range(self):
        h = Histogram()
        h.observe(1.0)
        with pytest.raises(ValueError):
            h.quantile(1.5)

    def test_single_value_all_quantiles_collapse(self):
        h = Histogram()
        h.observe(42.0)
        for q in (0.0, 0.5, 0.95, 0.99, 1.0):
            assert h.quantile(q) == 42.0

    def test_quantiles_clamped_to_observed_extremes(self):
        h = Histogram()
        for v in (10.0, 11.0, 12.0):
            h.observe(v)
        assert 10.0 <= h.quantile(0.5) <= 12.0
        assert h.quantile(0.0) == 10.0
        assert h.quantile(1.0) == 12.0

    def test_quantiles_order_and_accuracy(self):
        """Log2 buckets are exact within a factor of two: p95 of a uniform
        1..1000 stream must land in [p95_true/2, p95_true*2]."""
        h = Histogram()
        for v in range(1, 1001):
            h.observe(float(v))
        p50, p95, p99 = h.quantile(0.50), h.quantile(0.95), h.quantile(0.99)
        assert p50 <= p95 <= p99
        assert 250 <= p50 <= 1000
        assert 475 <= p95 <= 1000
        assert 495 <= p99 <= 1000

    def test_to_dict_includes_quantile_summary(self):
        h = Histogram()
        for v in (1.0, 2.0, 4.0, 8.0):
            h.observe(v)
        doc = h.to_dict()
        assert set(doc) >= {"count", "sum", "min", "max", "mean", "p50", "p95", "p99"}
        assert json.loads(json.dumps(doc)) == doc

    def test_zero_and_negative_values_bucket_safely(self):
        h = Histogram()
        h.observe(0.0)
        h.observe(-5.0)
        h.observe(3.0)
        assert h.quantile(0.5) is not None
        assert h.min == -5.0


class TestRunRegistry:
    """Every run carries a registry, traced or not."""

    def test_metrics_present_even_without_tracer(self):
        scenario = SCENARIO_BUILDERS["normal-contention"](seed=1)
        result = run_scenario(scenario, RunConfig())
        assert result.obs is None
        counters = result.metrics.to_dict()["counters"]
        assert counters.get("collection.collections", 0) > 0
        # No trace: no trace-derived event counters.
        assert not any(k.startswith("events.") for k in counters)
