import pytest

import stats


def test_highest_percentile_with_ten_samples_beyond():
    # n=42: p75 leaves 10.5 samples beyond, p90 only 4.2.
    assert stats.highest_supported(42) == 75
    assert stats.highest_supported(40) == 75
    assert stats.highest_supported(39) == 50
    # An open-loop run of 120 queries supports p90; 220 support p95.
    assert stats.highest_supported(120) == 90
    assert stats.highest_supported(220) == 95
    assert stats.highest_supported(1000) == 99
    # Ten sharded runs support a median only (and so does anything less).
    assert stats.highest_supported(10) == 50


def test_samples_beyond_is_the_share_above_the_percentile():
    assert stats.samples_beyond(200, 95) == pytest.approx(10.0)
    assert stats.samples_beyond(24, 90) == pytest.approx(2.4)


def test_percentile_interpolates_between_ranks():
    values = [10.0, 20.0, 30.0, 40.0, 50.0]
    assert stats.percentile(values, 0) == 10.0
    assert stats.percentile(values, 50) == 30.0
    assert stats.percentile(values, 90) == pytest.approx(46.0)
    assert stats.percentile(values, 100) == 50.0
    assert stats.percentile(list(reversed(values)), 75) == 40.0
    with pytest.raises(ValueError):
        stats.percentile([], 50)


def test_quartile_spread_matches_the_drivers_rule():
    import statistics

    values = [1.00, 1.02, 0.98, 1.01, 0.99, 1.03, 0.97, 1.00, 1.05, 0.95]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    assert stats.quartile_spread(values) == pytest.approx((q3 - q1) / q2)


def test_open_loop_latency_runs_from_the_due_time():
    # Four requests due every 100 ms; the generator stalls 250 ms before
    # the second, so requests 1 and 2 go out late.  Each takes 10 ms once
    # sent.  The stall is charged to the requests it delayed.
    due = [0.0, 0.1, 0.2, 0.3]
    sent = [0.0, 0.35, 0.35, 0.35]
    done = [s + 0.01 for s in sent]
    latency, late = stats.open_loop_latencies(due, sent, done)
    assert latency == pytest.approx([0.01, 0.26, 0.16, 0.06])
    assert late == pytest.approx([0.0, 0.25, 0.15, 0.05])
    # Timing from the send instead would hide the stall entirely.
    assert [d - s for s, d in zip(sent, done)] == pytest.approx([0.01] * 4)
