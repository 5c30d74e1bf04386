"""Discrete-event simulation engine.

A hybrid slotted-timer-wheel + heap scheduler with integer-nanosecond
timestamps:

- Events are stored in *slots*: one FIFO list per distinct timestamp
  (a hashed timing wheel whose slots are materialized on demand).  The
  dominant event classes — PFC pause refresh/expiry and per-packet dequeue
  wakeups — land on already-occupied timestamps more than half the time,
  so scheduling them is an O(1) list append with no heap traffic.
- A binary heap orders only the *distinct* occupied slot times, each
  pushed exactly once when its slot is created.
- Cancellation is O(1) (a flag on the handle); dead entries are purged
  when their slot drains and by periodic compaction sweeps, so cancelled
  entries cannot accumulate across long runs.

Within a slot, events run in schedule order (each append carries a later
schedule sequence), which keeps runs fully deterministic; across slots the
heap yields times in increasing order.  Callbacks may carry pre-bound
arguments (``schedule(delay, fn, *args)``) so hot call sites avoid
allocating a closure per event.

Inter-node packet deliveries use a separate *delivery band* per timestamp
(:meth:`Simulator.schedule_delivery`), merged with the ordinary slot by
*schedule time*: an entry scheduled (or sent) earlier executes earlier, an
exact tie goes to the ordinary entry, and deliveries tied on send time
order first by the schedule time of the event that issued the send (its
ordering provenance), then by the canonical ``(source, per-source
sequence)`` key.
Because a delivery's position no longer depends on *which process issued
the schedule call* — only on shippable values — the sharded runner
(``repro.sim.shard``) can split one fabric across worker processes and
still replay the exact per-node event order of a single-process run,
while a single-process run deviates from the legacy scheduler only on
exact schedule-time ties.
"""

from __future__ import annotations

import sys
from heapq import heapify, heappop, heappush
from operator import itemgetter
from typing import Callable, Dict, List, Optional, Tuple

_DELIVERY_ORDER = itemgetter(0)

# An event count no run reaches: "no budget" / "no stop to ask".
_NEVER = sys.maxsize

# Compaction sweep cadence: after this many executed events, sweep all
# slots and drop cancelled entries.  Amortized cost is O(pending / interval)
# per event — negligible — while bounding dead-entry accumulation.
COMPACT_INTERVAL_EVENTS = 1 << 15


class EventHandle:
    """Handle returned by :meth:`Simulator.schedule`; supports cancellation."""

    __slots__ = ("time", "sched", "fn", "args", "cancelled")

    def __init__(
        self, time: int, sched: int, fn: Callable[..., None], args: tuple
    ) -> None:
        self.time = time
        self.sched = sched  # simulated instant the schedule call was made
        self.fn = fn
        self.args = args
        self.cancelled = False

    def cancel(self) -> None:
        """Mark the event dead; O(1), it will be dropped when its slot drains."""
        self.cancelled = True


class PeriodicHandle:
    """A self-rescheduling periodic event; ``cancel()`` stops the chain.

    Each firing cancels nothing and allocates nothing beyond the next
    :class:`EventHandle`; cancellation flags the live handle, so the chain
    dies at its next scheduled instant like any other cancelled event.
    """

    __slots__ = ("_sim", "interval_ns", "fn", "fired", "_next", "cancelled")

    def __init__(self, sim: "Simulator", interval_ns: int, fn: Callable[[], None]) -> None:
        self._sim = sim
        self.interval_ns = interval_ns
        self.fn = fn
        self.fired = 0
        self.cancelled = False
        self._next = sim.schedule(interval_ns, self._fire)

    def _fire(self) -> None:
        self.fired += 1
        self._next = self._sim.schedule(self.interval_ns, self._fire)
        self.fn()

    def cancel(self) -> None:
        if self.cancelled:
            return
        self.cancelled = True
        self._next.cancel()


class Simulator:
    """The event loop shared by every simulated component."""

    def __init__(self) -> None:
        self.now: int = 0
        # Schedule time of the entry currently executing: ``handle.sched``
        # for ordinary events, the send time for delivery entries.  Sends
        # issued from inside a callback inherit it as their ordering
        # provenance (see Network.deliver) — a per-node, shippable value.
        self.exec_sched: int = 0
        # time -> FIFO list of handles scheduled for that instant.
        self._slots: Dict[int, List[EventHandle]] = {}
        # Heap of occupied slot times; exactly one entry per live slot.
        self._slot_heap: List[int] = []
        # time -> list of (order_key, fn, args) packet deliveries; executed
        # after all ordinary events at that time, sorted by order_key.
        self._bands: Dict[int, List[Tuple[tuple, Callable[..., None], tuple]]] = {}
        self._band_heap: List[int] = []
        self._events_run: int = 0
        self._events_purged: int = 0
        self._compactions: int = 0
        self._pending: int = 0
        self._max_pending: int = 0
        self._next_compact_at: int = COMPACT_INTERVAL_EVENTS

    # -- introspection (performance reporting & tests) -------------------------

    @property
    def events_run(self) -> int:
        """Total events executed so far."""
        return self._events_run

    @property
    def events_purged(self) -> int:
        """Cancelled entries dropped (at slot drain or by compaction)."""
        return self._events_purged

    @property
    def compactions(self) -> int:
        """Number of compaction sweeps performed."""
        return self._compactions

    @property
    def pending_entries(self) -> int:
        """Entries currently queued (live + cancelled-but-unpurged)."""
        return self._pending

    @property
    def max_pending_entries(self) -> int:
        """Peak event-queue depth observed (perf accounting)."""
        return self._max_pending

    def counters(self) -> Dict[str, int]:
        """Event-loop counters as one dict (metrics-registry absorption)."""
        return {
            "events_run": self._events_run,
            "events_purged": self._events_purged,
            "compactions": self._compactions,
            "pending_entries": self._pending,
            "max_pending_entries": self._max_pending,
        }

    # -- scheduling -------------------------------------------------------------

    def schedule(self, delay_ns: int, fn: Callable[..., None], *args) -> EventHandle:
        """Run ``fn(*args)`` after ``delay_ns`` nanoseconds of simulated time."""
        if delay_ns < 0:
            raise ValueError(f"cannot schedule in the past (delay={delay_ns})")
        # The slot-append body of ``schedule_at``, repeated on purpose: three
        # schedules in four come through here, and the trampoline cost them
        # a call frame and an ``*args`` re-pack each.  Keep the two in step.
        now = self.now
        time_ns = now + delay_ns
        handle = EventHandle(time_ns, now, fn, args)
        slot = self._slots.get(time_ns)
        if slot is None:
            self._slots[time_ns] = [handle]
            heappush(self._slot_heap, time_ns)
        else:
            slot.append(handle)
        pending = self._pending + 1
        self._pending = pending
        if pending > self._max_pending:
            self._max_pending = pending
        return handle

    def schedule_at(self, time_ns: int, fn: Callable[..., None], *args) -> EventHandle:
        """Run ``fn(*args)`` at an absolute simulated time."""
        if time_ns < self.now:
            raise ValueError(
                f"cannot schedule at {time_ns} (now is {self.now})"
            )
        handle = EventHandle(time_ns, self.now, fn, args)
        slot = self._slots.get(time_ns)
        if slot is None:
            self._slots[time_ns] = [handle]
            heappush(self._slot_heap, time_ns)
        else:
            slot.append(handle)
        pending = self._pending + 1
        self._pending = pending
        if pending > self._max_pending:
            self._max_pending = pending
        return handle

    def schedule_delivery(
        self, time_ns: int, order_key: tuple, fn: Callable[..., None], *args
    ) -> None:
        """Queue an inter-node packet delivery for ``time_ns``.

        ``order_key`` must be ``(send_time, trigger_sched, source node,
        per-source seq)`` where ``trigger_sched`` is :attr:`exec_sched` at
        the send call: the run loop merges deliveries with ordinary events
        by schedule/send time (ordinary entry wins an exact tie) and orders
        deliveries tied on send time by the schedule time of the event that
        issued the send, then by the canonical source key.  Delivery entries are not
        cancellable (packets in flight cannot be recalled), which keeps the
        band free of dead-entry bookkeeping.
        """
        if time_ns < self.now:
            raise ValueError(
                f"cannot deliver at {time_ns} (now is {self.now})"
            )
        band = self._bands.get(time_ns)
        if band is None:
            self._bands[time_ns] = [(order_key, fn, args)]
            heappush(self._band_heap, time_ns)
        else:
            band.append((order_key, fn, args))
        pending = self._pending + 1
        self._pending = pending
        if pending > self._max_pending:
            self._max_pending = pending

    def schedule_every(
        self, interval_ns: int, fn: Callable[[], None]
    ) -> PeriodicHandle:
        """Run ``fn()`` every ``interval_ns``, starting one interval from now."""
        if interval_ns <= 0:
            raise ValueError(f"interval must be positive, got {interval_ns}")
        return PeriodicHandle(self, interval_ns, fn)

    # -- the event loop ---------------------------------------------------------

    def run(
        self,
        until_ns: Optional[int] = None,
        max_events: Optional[int] = None,
        stop: Optional[Callable[[], bool]] = None,
        stop_every: int = 1,
    ) -> None:
        """Drain the event queue, optionally stopping at ``until_ns``.

        Events scheduled exactly at ``until_ns`` still execute; the clock
        never runs past it.  Cancelled head entries (including whole dead
        slots) are purged *before* the stopping check, so the ``until_ns``
        comparison never consults a dead head entry.

        Deliveries queued via :meth:`schedule_delivery` for an instant run
        only once every ordinary slot at that instant (including same-time
        chains the slot spawns) has drained, in ``order_key`` order.

        ``max_events`` is an event budget.  Once that many events have
        run, the call becomes ``run(now)``: the instant in progress drains
        (a slot/band merge is never split, so the overshoot is at most that
        instant's batch), ``now`` stays there instead of jumping to
        ``until_ns``, and the next call resumes.  A budget stop is thus an
        ``until_ns`` stop at an instant the budget picked; it does not move
        the compaction schedule, so a run chopped into budgets has the
        event order and :meth:`counters` of one unbudgeted call.

        ``stop`` is a budget the caller decides on the way: it is asked
        once ``stop_every`` events have run since the call began (or
        since it last said no), and a true answer is a spent budget — the
        same stop, so everything above holds for it.  It is asked from
        inside the loop, possibly with the instant's same-time chain still
        queued, so it must not touch the simulation.  Events run before
        the first question, so a caller whose ``stop`` always says yes
        still advances.
        """
        if max_events is not None and max_events < 1:
            raise ValueError(f"max_events must be positive, got {max_events}")
        if stop_every < 1:
            raise ValueError(f"stop_every must be positive, got {stop_every}")
        slots = self._slots
        slot_heap = self._slot_heap
        bands = self._bands
        band_heap = self._band_heap
        limit = _NEVER if until_ns is None else until_ns
        # One comparison per instant covers the compaction cadence, the
        # budget and the next question to ``stop``: a run with neither a
        # budget nor a stop pays nothing for them.
        stop_at = _NEVER if max_events is None else self._events_run + max_events
        ask_at = _NEVER if stop is None else self._events_run + stop_every
        check_at = min(self._next_compact_at, stop_at, ask_at)
        while True:
            # Find the next live ordinary slot, purging dead heads on the
            # way; ``i`` is the length of its cancelled prefix.
            slot_time = None
            while slot_heap:
                slot_time = slot_heap[0]
                slot = slots[slot_time]
                i = 0
                if not slot[0].cancelled:
                    break
                n = len(slot)
                while i < n and slot[i].cancelled:
                    i += 1
                if i < n:
                    break
                heappop(slot_heap)
                del slots[slot_time]
                self._events_purged += n
                self._pending -= n
                slot_time = None
            if band_heap:
                band_time = band_heap[0]
                if slot_time is None or band_time < slot_time:
                    next_time = band_time
                else:
                    next_time = slot_time
            elif slot_time is None:
                break
            else:
                band_time = None
                next_time = slot_time
            if next_time > limit:
                if slot_time == next_time and i:
                    del slot[:i]
                    self._events_purged += i
                    self._pending -= i
                break
            # Detach everything queued for this instant.  Same-time events
            # scheduled by callbacks open a fresh slot and run in a later
            # pass (their schedule time equals this instant, so they sort
            # after every already-queued entry).
            self.now = next_time
            if band_time != next_time:
                # Ordinary events only.  The detached list is never mutated
                # again, so plain iteration is safe; a callback may still
                # cancel a later entry of it, hence the per-entry check.
                heappop(slot_heap)
                del slots[next_time]
                n = len(slot)
                self._pending -= n
                dead = 0
                for handle in slot:
                    if handle.cancelled:
                        dead += 1
                        continue
                    self.exec_sched = handle.sched
                    handle.fn(*handle.args)
                ran = n - dead
            else:
                heappop(band_heap)
                batch = bands.pop(next_time)
                blen = len(batch)
                if blen > 1:
                    batch.sort(key=_DELIVERY_ORDER)
                if slot_time != next_time:
                    # Deliveries only.
                    self._pending -= blen
                    dead = 0
                    for key, fn, args in batch:
                        self.exec_sched = key[0]
                        fn(*args)
                    ran = blen
                else:
                    heappop(slot_heap)
                    del slots[next_time]
                    n = len(slot)
                    self._pending -= n + blen
                    # Merge by schedule/send time: earlier-scheduled runs
                    # first, an ordinary entry wins an exact tie.  Slot
                    # entries are appended in nondecreasing schedule order
                    # and the band is sorted, so a single forward merge
                    # reproduces the global order.  ``i`` starts past the
                    # slot's cancelled prefix.
                    dead = i
                    for key, fn, args in batch:
                        send = key[0]
                        while i < n:
                            handle = slot[i]
                            if handle.sched > send:
                                break
                            i += 1
                            if handle.cancelled:
                                dead += 1
                                continue
                            self.exec_sched = handle.sched
                            handle.fn(*handle.args)
                        self.exec_sched = send
                        fn(*args)
                    for handle in slot[i:]:
                        if handle.cancelled:
                            dead += 1
                            continue
                        self.exec_sched = handle.sched
                        handle.fn(*handle.args)
                    ran = n - dead + blen
            if dead:
                self._events_purged += dead
            events_run = self._events_run + ran
            self._events_run = events_run
            if events_run >= check_at:
                if events_run >= self._next_compact_at:
                    self._next_compact_at = events_run + COMPACT_INTERVAL_EVENTS
                    self.compact()
                if events_run >= stop_at or (events_run >= ask_at and stop()):
                    # Budget spent: from here this call is ``run(now)``
                    # — same-time chains drain, then the ordinary
                    # ``until_ns`` stop ends it.
                    until_ns = limit = next_time
                    stop_at = ask_at = _NEVER
                elif events_run >= ask_at:
                    ask_at = events_run + stop_every
                check_at = min(self._next_compact_at, stop_at, ask_at)
        if until_ns is not None and self.now < until_ns:
            self.now = until_ns

    def peek_next_time(self) -> Optional[int]:
        """Timestamp of the next live event, or ``None`` if the queue is idle."""
        slots = self._slots
        slot_heap = self._slot_heap
        slot_time: Optional[int] = None
        while slot_heap:
            time_ns = slot_heap[0]
            slot = slots[time_ns]
            i = 0
            n = len(slot)
            while i < n and slot[i].cancelled:
                i += 1
            if i < n:
                if i:
                    del slot[:i]
                    self._events_purged += i
                    self._pending -= i
                slot_time = time_ns
                break
            heappop(slot_heap)
            del slots[time_ns]
            self._events_purged += n
            self._pending -= n
        if self._band_heap:
            band_time = self._band_heap[0]
            if slot_time is None or band_time < slot_time:
                return band_time
        return slot_time

    def compact(self) -> int:
        """Drop every cancelled entry and empty slot; returns entries purged.

        Runs automatically every ``COMPACT_INTERVAL_EVENTS`` executed events;
        callers with bursty cancellation patterns may invoke it directly.
        """
        purged = 0
        dead_slots = []
        for time_ns, slot in self._slots.items():
            if any(h.cancelled for h in slot):
                live = [h for h in slot if not h.cancelled]
                purged += len(slot) - len(live)
                if live:
                    self._slots[time_ns] = live
                else:
                    dead_slots.append(time_ns)
        if dead_slots:
            for time_ns in dead_slots:
                del self._slots[time_ns]
            # Rebuild in place: ``run`` holds a local alias to this list.
            self._slot_heap[:] = self._slots.keys()
            heapify(self._slot_heap)
        self._events_purged += purged
        self._pending -= purged
        self._compactions += 1
        return purged
