"""Event engine tests: ordering, cancellation, determinism, and the
slotted-wheel + heap scheduler internals (slot reuse, purging, compaction)."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.sim import Simulator
from repro.sim.engine import COMPACT_INTERVAL_EVENTS


class TestScheduling:
    def test_runs_in_time_order(self):
        sim = Simulator()
        order = []
        sim.schedule(30, lambda: order.append("c"))
        sim.schedule(10, lambda: order.append("a"))
        sim.schedule(20, lambda: order.append("b"))
        sim.run()
        assert order == ["a", "b", "c"]

    def test_ties_run_in_schedule_order(self):
        sim = Simulator()
        order = []
        for i in range(5):
            sim.schedule(10, lambda i=i: order.append(i))
        sim.run()
        assert order == [0, 1, 2, 3, 4]

    def test_clock_advances_to_event_time(self):
        sim = Simulator()
        seen = []
        sim.schedule(42, lambda: seen.append(sim.now))
        sim.run()
        assert seen == [42]

    def test_negative_delay_rejected(self):
        sim = Simulator()
        with pytest.raises(ValueError):
            sim.schedule(-1, lambda: None)

    def test_schedule_in_past_rejected(self):
        sim = Simulator()
        sim.schedule(10, lambda: sim.schedule_at(5, lambda: None))
        with pytest.raises(ValueError):
            sim.run()

    def test_events_can_schedule_events(self):
        sim = Simulator()
        seen = []
        sim.schedule(1, lambda: sim.schedule(1, lambda: seen.append(sim.now)))
        sim.run()
        assert seen == [2]


class TestRunUntil:
    def test_stops_at_boundary(self):
        sim = Simulator()
        seen = []
        sim.schedule(10, lambda: seen.append("early"))
        sim.schedule(100, lambda: seen.append("late"))
        sim.run(until_ns=50)
        assert seen == ["early"]
        assert sim.now == 50

    def test_boundary_event_included(self):
        sim = Simulator()
        seen = []
        sim.schedule(50, lambda: seen.append("at"))
        sim.run(until_ns=50)
        assert seen == ["at"]

    def test_resume_after_until(self):
        sim = Simulator()
        seen = []
        sim.schedule(100, lambda: seen.append("late"))
        sim.run(until_ns=50)
        sim.run(until_ns=200)
        assert seen == ["late"]

    def test_clock_reaches_until_even_when_idle(self):
        sim = Simulator()
        sim.run(until_ns=1234)
        assert sim.now == 1234


class TestCancellation:
    def test_cancelled_event_skipped(self):
        sim = Simulator()
        seen = []
        handle = sim.schedule(10, lambda: seen.append("x"))
        handle.cancel()
        sim.run()
        assert seen == []

    def test_cancelled_not_counted(self):
        sim = Simulator()
        handle = sim.schedule(10, lambda: None)
        handle.cancel()
        sim.schedule(20, lambda: None)
        sim.run()
        assert sim.events_run == 1

    def test_peek_skips_cancelled(self):
        sim = Simulator()
        h = sim.schedule(10, lambda: None)
        sim.schedule(20, lambda: None)
        h.cancel()
        assert sim.peek_next_time() == 20

    def test_peek_empty(self):
        assert Simulator().peek_next_time() is None


class TestSlotScheduler:
    """The hybrid wheel/heap internals: shared slots, purging, compaction."""

    def test_same_timestamp_shares_one_slot(self):
        sim = Simulator()
        for _ in range(5):
            sim.schedule(10, lambda: None)
        assert len(sim._slot_heap) == 1
        assert len(sim._slots[10]) == 5

    def test_same_time_fifo_across_slot_detach(self):
        # Events scheduled *during* a timestamp's execution for that same
        # timestamp open a fresh slot and still run, after the current batch.
        sim = Simulator()
        order = []

        def first():
            order.append("first")
            sim.schedule(0, lambda: order.append("nested"))

        sim.schedule(10, first)
        sim.schedule(10, lambda: order.append("second"))
        sim.run()
        assert order == ["first", "second", "nested"]

    def test_cancel_after_fire_is_harmless(self):
        sim = Simulator()
        seen = []
        handle = sim.schedule(10, lambda: seen.append("x"))
        sim.run()
        handle.cancel()  # already fired; must not corrupt counters
        sim.schedule(5, lambda: seen.append("y"))
        sim.run()
        assert seen == ["x", "y"]
        assert sim.events_run == 2

    def test_until_boundary_ignores_dead_head(self):
        # A cancelled entry at the head must not stop run(until_ns) from
        # reaching live events behind it at a later (but in-range) time.
        sim = Simulator()
        seen = []
        dead = sim.schedule(10, lambda: seen.append("dead"))
        sim.schedule(20, lambda: seen.append("live"))
        dead.cancel()
        sim.run(until_ns=20)
        assert seen == ["live"]
        assert sim.events_purged == 1

    def test_until_boundary_dead_slot_beyond_until(self):
        # The head slot is wholly cancelled AND beyond until_ns: the purge
        # happens before the stopping check, the clock still lands on until.
        sim = Simulator()
        dead = sim.schedule(100, lambda: None)
        dead.cancel()
        sim.run(until_ns=50)
        assert sim.now == 50
        assert sim.pending_entries == 0

    def test_cancelled_prefix_of_live_slot_purged_at_boundary(self):
        sim = Simulator()
        seen = []
        dead = sim.schedule(100, lambda: seen.append("dead"))
        sim.schedule(100, lambda: seen.append("live"))
        dead.cancel()
        sim.run(until_ns=50)  # slot beyond until: prefix purged, live kept
        assert sim.pending_entries == 1
        sim.run()
        assert seen == ["live"]

    def test_wheel_heap_crossover_interleaving(self):
        # Dense same-time appends (wheel hits) interleaved with distinct
        # times (heap pushes) must still fire in (time, schedule) order.
        sim = Simulator()
        order = []
        expect = []
        pattern = [10, 30, 10, 20, 30, 10, 40, 20, 10]
        for i, t in enumerate(pattern):
            sim.schedule(t, lambda i=i, t=t: order.append((t, i)))
            expect.append((t, i))
        expect.sort()
        sim.run()
        assert order == expect
        assert sim.events_run == len(pattern)

    def test_compact_drops_cancelled_and_counts(self):
        sim = Simulator()
        keep = [sim.schedule(10 * (i + 1), lambda: None) for i in range(4)]
        for handle in keep[1:3]:
            handle.cancel()
        purged = sim.compact()
        assert purged == 2
        assert sim.events_purged == 2
        assert sim.compactions == 1
        assert sim.pending_entries == 2
        sim.run()
        assert sim.events_run == 2

    def test_compact_whole_dead_slot_rebuilds_heap(self):
        sim = Simulator()
        for handle in [sim.schedule(10, lambda: None) for _ in range(3)]:
            handle.cancel()
        seen = []
        sim.schedule(20, lambda: seen.append(sim.now))
        assert sim.compact() == 3
        assert 10 not in sim._slots
        sim.run()  # the run loop's local heap alias must see the rebuild
        assert seen == [20]

    def test_auto_compaction_triggers(self):
        sim = Simulator()
        n = COMPACT_INTERVAL_EVENTS + 10

        def tick(left):
            if left:
                sim.schedule(1, tick, left - 1)

        tick(n)
        sim.run()
        assert sim.events_run == n
        assert sim.compactions >= 1

    def test_pending_and_peak_counters(self):
        sim = Simulator()
        for i in range(5):
            sim.schedule(10 + i, lambda: None)
        assert sim.pending_entries == 5
        assert sim.max_pending_entries == 5
        sim.run()
        assert sim.pending_entries == 0
        assert sim.max_pending_entries == 5

    def test_schedule_with_prebound_args(self):
        sim = Simulator()
        seen = []
        sim.schedule(5, seen.append, "a")
        sim.schedule_at(7, seen.append, "b")
        sim.run()
        assert seen == ["a", "b"]

    def test_relative_and_absolute_share_one_fifo(self):
        """``schedule`` appends to the slot itself rather than calling
        ``schedule_at``; both must feed the same per-timestamp FIFO, with
        the same bookkeeping."""
        sim = Simulator()
        seen = []

        def burst():
            now = sim.now
            handles = [
                sim.schedule(5, seen.append, 0),
                sim.schedule_at(now + 5, seen.append, 1),
                sim.schedule(5, seen.append, 2),
                sim.schedule_at(now + 5, seen.append, 3),
                sim.schedule(0, seen.append, "same-instant"),
            ]
            assert [h.time for h in handles] == [now + 5] * 4 + [now]
            assert all(h.sched == now and not h.cancelled for h in handles)
            assert sim.pending_entries == 5

        sim.schedule(10, burst)
        sim.run()
        assert seen == ["same-instant", 0, 1, 2, 3]
        assert sim.events_run == 6 and sim.max_pending_entries == 5

    def test_past_rejected_after_clock_moved(self):
        sim = Simulator()
        sim.run(until_ns=100)
        with pytest.raises(ValueError, match=r"in the past \(delay=-1\)"):
            sim.schedule(-1, lambda: None)
        with pytest.raises(ValueError, match=r"at 99 \(now is 100\)"):
            sim.schedule_at(sim.now - 1, lambda: None)
        assert sim.pending_entries == 0
        sim.schedule(0, lambda: None)
        sim.schedule_at(sim.now, lambda: None)
        assert sim.pending_entries == 2


class TestDeterminism:
    @given(st.lists(st.integers(min_value=0, max_value=1000), max_size=60))
    def test_same_schedule_same_order(self, delays):
        def run_once():
            sim = Simulator()
            order = []
            for i, d in enumerate(delays):
                sim.schedule(d, lambda i=i: order.append(i))
            sim.run()
            return order

        assert run_once() == run_once()

    @given(st.lists(st.integers(min_value=0, max_value=1000), max_size=60))
    def test_execution_times_nondecreasing(self, delays):
        sim = Simulator()
        times = []
        for d in delays:
            sim.schedule(d, lambda: times.append(sim.now))
        sim.run()
        assert times == sorted(times)
