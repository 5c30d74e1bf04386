"""The event-budget contract of ``Simulator.run(until_ns, max_events,
stop, stop_every)``.

A budget stop is an ``until_ns`` stop at an instant the event count
picked: it falls between simulated instants, leaves ``now`` on the last
executed instant, and a run chopped into budgets is indistinguishable —
event order and every counter — from one unbudgeted call.  ``stop`` is
the same stop at an instant the caller picked, asked every
``stop_every`` events.  ``repro serve`` leans on exactly this to preempt
a slice for a waiting query.
"""

import itertools

import pytest

from repro.sim import Simulator
from repro.workloads import SCENARIO_BUILDERS

BUDGETS = [1, 7, 512]


def _busy_sim(log):
    """Instants 10, 20, ... 100: five slot events, a two-entry delivery
    band, and a same-time chain (an event that schedules at delay 0)."""
    sim = Simulator()

    def note(tag):
        log.append((sim.now, tag))

    def chain(tag):
        note(tag)
        sim.schedule(0, note, f"{tag}+chained")

    for t in range(10, 101, 10):
        for k in range(4):
            sim.schedule_at(t, note, f"slot{k}")
        sim.schedule_at(t, chain, "slot4")
        sim.schedule_delivery(t, (t - 5, 0, "b", 1), note, "band-b")
        sim.schedule_delivery(t, (t - 5, 0, "a", 1), note, "band-a")
    return sim


INSTANT_BATCH = 8  # events per instant in _busy_sim, the chained one included


class TestBudgetStop:
    def test_rejects_non_positive_budget(self):
        sim = Simulator()
        for bad in (0, -3):
            with pytest.raises(ValueError):
                sim.run(100, max_events=bad)

    @pytest.mark.parametrize("budget", [1, 3, 7, 8, 9, 20])
    def test_stops_only_between_instants(self, budget):
        log = []
        sim = _busy_sim(log)
        while sim.now < 200:
            before = len(log)
            sim.run(200, max_events=budget)
            ran = log[before:]
            if not ran:
                break  # queue drained: the call only moved the clock
            # Whole instants only: a slot/band merge (and the same-time
            # chain it spawns) is never split across two calls.
            assert len(ran) % INSTANT_BATCH == 0
            # The overshoot is less than one instant's batch.
            assert len(ran) < budget + INSTANT_BATCH
            # ``now`` sits on the last executed instant, not past it.
            if sim.peek_next_time() is not None:
                assert sim.now == ran[-1][0]
        assert len(log) == 10 * INSTANT_BATCH

    @pytest.mark.parametrize("budget", [1, 7, 512])
    def test_chopped_order_is_the_unbudgeted_order(self, budget):
        whole = []
        _busy_sim(whole).run(200)
        chopped = []
        sim = _busy_sim(chopped)
        while sim.now < 200:
            sim.run(200, max_events=budget)
        assert chopped == whole
        assert sim.now == 200

    def test_now_stays_on_the_stop_instant(self):
        log = []
        sim = _busy_sim(log)
        sim.run(1000, max_events=1)
        assert sim.now == 10  # not 1000: the target was not reached
        sim.run(1000, max_events=INSTANT_BATCH + 1)
        assert sim.now == 30

    def test_peek_next_time_unchanged_by_a_stop(self):
        sim = _busy_sim([])
        sim.run(1000, max_events=1)
        counters = sim.counters()
        assert sim.peek_next_time() == 20
        assert sim.counters() == counters
        sim.run(1000, max_events=1)
        assert sim.now == 20

    def test_budget_larger_than_the_queue_reaches_the_target(self):
        sim = _busy_sim([])
        sim.run(150, max_events=10_000)
        assert sim.now == 150
        assert sim.events_run == 10 * INSTANT_BATCH

    def test_unbounded_run_with_a_budget(self):
        log = []
        sim = _busy_sim(log)
        sim.run(max_events=INSTANT_BATCH)
        assert sim.now == 10 and len(log) == INSTANT_BATCH
        sim.run()
        assert len(log) == 10 * INSTANT_BATCH

    def test_cancelled_entries_are_not_charged_to_the_budget(self):
        sim = Simulator()
        ran = []
        doomed = [sim.schedule_at(10, ran.append, "dead") for _ in range(5)]
        for handle in doomed:
            handle.cancel()
        sim.schedule_at(10, ran.append, "live")
        sim.schedule_at(20, ran.append, "later")
        sim.run(100, max_events=1)
        assert ran == ["live"] and sim.now == 10
        assert sim.events_purged == 5


def _every_third():
    """A ``stop`` that says yes to every third question."""
    answers = itertools.cycle([False, False, True])
    return lambda: next(answers)


class TestStopCallable:
    def test_rejects_non_positive_interval(self):
        sim = Simulator()
        for bad in (0, -3):
            with pytest.raises(ValueError):
                sim.run(100, stop=lambda: True, stop_every=bad)

    @pytest.mark.parametrize("budget", [None, 1, 7, 512])
    @pytest.mark.parametrize("stop_every", [1, 7, 64])
    @pytest.mark.parametrize(
        "make_stop", [lambda: (lambda: True), _every_third],
        ids=["always", "every-third"],
    )
    def test_chopped_order_is_the_unbudgeted_order(
        self, make_stop, stop_every, budget
    ):
        whole = []
        _busy_sim(whole).run(200)
        chopped = []
        sim = _busy_sim(chopped)
        stop = make_stop()
        calls = 0
        while sim.now < 200:
            before = len(chopped)
            sim.run(200, budget, stop, stop_every)
            calls += 1
            # An eager stop (and a budget below the interval, which never
            # lets it speak) still advances: whole instants, at least one.
            ran = len(chopped) - before
            assert ran % INSTANT_BATCH == 0
            assert ran or sim.now == 200
        assert chopped == whole
        assert sim.now == 200
        assert calls <= 10 + 1  # ten instants, then the clock moves to 200

    def test_asked_every_interval_and_a_yes_drains_the_instant(self):
        log, asked = [], []
        sim = _busy_sim(log)

        def stop():
            asked.append(len(log))
            return len(asked) == 2

        sim.run(1000, stop=stop, stop_every=3)
        # Each instant is a batch of 7 and its chained event.  Asked after
        # the batch that crossed 3 events (no), then after the one that
        # crossed 7 + 3 (yes, with instant 20's chain still queued: it
        # drains, like on a spent budget) — and never again.
        assert asked == [7, 15]
        assert sim.now == 20 and len(log) == 2 * INSTANT_BATCH

    def test_budget_wins_when_it_comes_first(self):
        sim = _busy_sim([])
        sim.run(1000, 1, lambda: pytest.fail("asked past the budget"), 64)
        assert sim.now == 10

    def test_a_stop_that_never_fires_reaches_the_target(self):
        sim = _busy_sim([])
        sim.run(150, stop=lambda: False, stop_every=1)
        assert sim.now == 150
        assert sim.events_run == 10 * INSTANT_BATCH


def _counters_after(scenario_name, budget, stop=None, stop_every=1):
    scenario = SCENARIO_BUILDERS[scenario_name](seed=3)
    sim = scenario.network.sim
    until = scenario.duration_ns
    while sim.now < until:  # one call when nothing chops it
        sim.run(until, budget, stop, stop_every)
    assert sim.now == until
    return sim.counters()


class TestChoppedScenarioCounters:
    """Real fabrics: the storm (dense same-instant batches) and the
    in-loop deadlock (cancelled dequeue wakes by the hundred)."""

    @pytest.mark.parametrize("scenario", ["pfc-storm", "in-loop-deadlock"])
    def test_counters_identical_at_every_budget(self, scenario):
        whole = _counters_after(scenario, None)
        assert whole["events_run"] > 10_000
        for budget in BUDGETS:
            assert _counters_after(scenario, budget) == whole, budget

    @pytest.mark.parametrize("scenario", ["pfc-storm", "in-loop-deadlock"])
    def test_counters_identical_under_every_stop(self, scenario):
        whole = _counters_after(scenario, None)
        for budget, stop_every in [(None, 64), (512, 64), (512, 7), (7, 64)]:
            chopped = _counters_after(
                scenario, budget, _every_third(), stop_every
            )
            assert chopped == whole, (budget, stop_every)
