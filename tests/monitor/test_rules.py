"""Alert rules: sustain/collapse shapes and the per-episode latch."""

from repro.monitor import (
    Alert,
    CollapseRule,
    RingSeries,
    RuleEngine,
    SustainedRule,
)


def make_series(values, metric="m", subject="s", step=100):
    series = RingSeries(metric, subject, step_ns=step)
    for v in values:
        series.append(float(v))
    return series


class TestSustainedRule:
    rule = SustainedRule(name="r", category="c", metric="m", threshold=5.0, sustain=3)

    def test_fires_after_sustain_samples(self):
        assert self.rule.check(make_series([6, 6])) is None  # too short
        assert self.rule.check(make_series([6, 6, 6])) == (6.0, 5.0)

    def test_dip_breaks_the_streak(self):
        assert self.rule.check(make_series([6, 4, 6])) is None

    def test_only_last_sustain_samples_matter(self):
        assert self.rule.check(make_series([0, 0, 7, 8, 9])) == (9.0, 5.0)


class TestCollapseRule:
    rule = CollapseRule(
        name="r", category="c", metric="m", window=3, fraction=0.5, min_level=10.0
    )

    def test_needs_two_windows(self):
        assert self.rule.check(make_series([100, 100, 100, 0, 0])) is None

    def test_fires_on_collapse(self):
        hit = self.rule.check(make_series([100, 100, 100, 0, 0, 0]))
        assert hit == (0.0, 50.0)

    def test_quiet_prior_never_fires(self):
        # Prior mean below min_level: a port that was never moving bytes
        # cannot "collapse".
        assert self.rule.check(make_series([1, 1, 1, 0, 0, 0])) is None

    def test_partial_drop_above_fraction_is_fine(self):
        assert self.rule.check(make_series([100, 100, 100, 60, 60, 60])) is None


class TestRuleEngine:
    def test_episode_latch_raises_once(self):
        engine = RuleEngine(
            [SustainedRule(name="r", category="c", metric="m", threshold=1.0, sustain=2)]
        )
        series = RingSeries("m", "s", step_ns=100)
        raised = []
        for t, v in enumerate([1, 1, 1, 1, 0, 1, 1], start=1):
            series.append(float(v))
            before = len(engine.alerts)
            assert engine.step(series, t * 100) is None
            raised += engine.alerts[before:]
        # One alert for the first episode, one after the dip re-armed it.
        assert len(raised) == 2
        assert [a.time_ns for a in raised] == [200, 700]
        assert engine.alerts == raised

    def test_latch_is_per_subject(self):
        engine = RuleEngine(
            [SustainedRule(name="r", category="c", metric="m", threshold=1.0, sustain=1)]
        )
        s1 = make_series([1], subject="p1")
        s2 = make_series([1], subject="p2")
        engine.step(s1, 100)
        assert [a.subject for a in engine.alerts] == ["p1"]
        engine.step(s2, 100)
        assert [a.subject for a in engine.alerts] == ["p1", "p2"]

    def test_unwatched_metric_is_free(self):
        engine = RuleEngine(
            [SustainedRule(name="r", category="c", metric="m", threshold=1.0)]
        )
        other = make_series([9, 9, 9], metric="unrelated")
        engine.step(other, 100)
        assert engine.alerts == []

    def test_alerts_by_category(self):
        engine = RuleEngine(
            [
                SustainedRule(name="a", category="x", metric="m", threshold=1.0, sustain=1),
                SustainedRule(name="b", category="y", metric="m", threshold=1.0, sustain=1),
            ]
        )
        engine.step(make_series([2]), 100)
        assert engine.alerts_by_category() == {"x": 1, "y": 1}

    def test_alert_serialization(self):
        alert = Alert(
            rule="r", category="c", subject="E0.P1",
            time_ns=1000, value=2.0, threshold=1.0,
        )
        d = alert.to_dict()
        assert d["subject"] == "E0.P1"
        assert "E0.P1" in alert.describe()
