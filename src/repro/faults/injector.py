"""Seeded fault injection for the collection pipeline.

A :class:`FaultInjector` turns a :class:`~repro.faults.plan.FaultPlan`
into per-event decisions.  Every fault category draws from its own
``random.Random`` stream keyed by ``(category, entity)`` — the entity is
the switch (or victim flow) the decision is about — so adding a new
category, consulting one category more often, or visiting the switches
in another order never perturbs the draw sequence of the others.  Entity
keying is why incident logs reproduce at all: a switch's fault stream is
a pure function of (plan seed, category, switch), whatever else shares
the run.

Each decision is recorded once, as a :class:`FaultIncident` in the
incident log.  The run's ``fault_counters`` (the ``faults.*`` metrics and
``repro chaos --json``) tally that log by kind, and no component keeps
its own count of the same events.  ``incident_log()`` renders the log in
canonical ``(time, where, kind, detail)`` order, which the determinism
tests compare.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from .plan import (
    AGENT_RESTART_BLACKOUT_NS,
    DMA_STALE_AGE_NS,
    REPORT_DELAY_MAX_NS,
    FaultPlan,
)

# Fate constants for the DMA read and report channel decisions.
DMA_OK = "ok"
DMA_FAIL = "fail"
DMA_STALE = "stale"

REPORT_OK = "ok"
REPORT_LOST = "lost"
REPORT_TRUNCATED = "truncated"
REPORT_DELAYED = "delayed"


@dataclass(frozen=True)
class FaultIncident:
    """One injected fault, in simulation order."""

    time_ns: int
    kind: str
    where: str
    detail: str = ""

    def describe(self) -> str:
        text = f"t={self.time_ns} {self.kind} @ {self.where}"
        return f"{text} ({self.detail})" if self.detail else text

    def sort_key(self) -> Tuple[int, str, str, str]:
        return (self.time_ns, self.where, self.kind, self.detail)


class FaultInjector:
    """Draws fault decisions from a plan's seeded per-entity streams.

    The one genuinely fabric-global stream — agent restarts — is keyed by
    a fixed entity (``"agent"``).
    """

    def __init__(self, plan: FaultPlan) -> None:
        self.plan = plan
        self.incidents: List[FaultIncident] = []
        self._streams: Dict[Tuple[str, str], random.Random] = {}
        self._skew: Dict[str, int] = {}

    # -- stream plumbing ------------------------------------------------------

    def _stream(self, category: str, entity: str) -> random.Random:
        key = (category, entity)
        rng = self._streams.get(key)
        if rng is None:
            # String seeds hash via SHA-512 inside random.seed(): stable
            # across processes and interpreter runs (unlike hash()).
            rng = random.Random(f"{self.plan.seed}/{category}/{entity}")
            self._streams[key] = rng
        return rng

    def _record(self, time_ns: int, kind: str, where: str, detail: str = "") -> None:
        self.incidents.append(FaultIncident(time_ns, kind, where, detail))

    def incident_log(self) -> List[str]:
        """The canonically ordered, human-readable incident log.

        Sorted by ``(time, where, kind, detail)`` rather than raw record
        order: the one order every consumer compares (the determinism
        anchor).
        """
        return [
            incident.describe()
            for incident in sorted(self.incidents, key=FaultIncident.sort_key)
        ]

    def count(self, kind: str, where: str = "-", time_ns: int = 0, detail: str = "") -> None:
        """Record a pipeline-reliability event (retry, abandonment) that is
        a *consequence* of injected faults, so it lands in the same log."""
        self._record(time_ns, kind, where, detail)

    # -- polling packets ------------------------------------------------------

    def polling_fate(self, now: int, switch_name: str) -> bool:
        """Does this polling packet survive the hop into ``switch_name``?

        Loss and corruption are both terminal for the packet (a corrupted
        polling header fails the switch's CRC/parse and is discarded), but
        they are counted separately — corruption is evidence of a marginal
        link rather than congestion drop.
        """
        plan = self.plan
        if plan.polling_loss_rate > 0.0:
            if self._stream("polling_loss", switch_name).random() < plan.polling_loss_rate:
                self._record(now, "polling_packet_lost", switch_name)
                return False
        if plan.polling_corrupt_rate > 0.0:
            if self._stream("polling_corrupt", switch_name).random() < plan.polling_corrupt_rate:
                self._record(now, "polling_packet_corrupted", switch_name)
                return False
        return True

    # -- switch-CPU register DMA ----------------------------------------------

    def dma_fate(self, now: int, switch_name: str) -> str:
        """Outcome of one register DMA read attempt."""
        plan = self.plan
        if plan.dma_failure_rate > 0.0:
            if self._stream("dma_fail", switch_name).random() < plan.dma_failure_rate:
                self._record(now, "dma_read_failed", switch_name)
                return DMA_FAIL
        if plan.dma_stale_rate > 0.0:
            if self._stream("dma_stale", switch_name).random() < plan.dma_stale_rate:
                self._record(
                    now, "dma_read_stale", switch_name,
                    f"age={DMA_STALE_AGE_NS}ns",
                )
                return DMA_STALE
        return DMA_OK

    # -- report channel --------------------------------------------------------

    def report_fate(self, now: int, switch_name: str) -> Tuple[str, int]:
        """Outcome for one report packet; returns ``(fate, delay_ns)``."""
        plan = self.plan
        if plan.report_loss_rate > 0.0:
            if self._stream("report_loss", switch_name).random() < plan.report_loss_rate:
                self._record(now, "report_lost", switch_name)
                return REPORT_LOST, 0
        if plan.report_truncate_rate > 0.0:
            if self._stream("report_truncate", switch_name).random() < plan.report_truncate_rate:
                self._record(now, "report_truncated", switch_name)
                return REPORT_TRUNCATED, 0
        if plan.report_delay_rate > 0.0:
            if self._stream("report_delay", switch_name).random() < plan.report_delay_rate:
                delay = self._stream("report_delay_ns", switch_name).randrange(
                    1, REPORT_DELAY_MAX_NS
                )
                self._record(now, "report_delayed", switch_name, f"delay={delay}ns")
                return REPORT_DELAYED, delay
        return REPORT_OK, 0

    # -- agent -----------------------------------------------------------------

    def agent_restart_due(self, now: int) -> bool:
        """Checked once per agent stall-check tick."""
        plan = self.plan
        if plan.agent_restart_rate <= 0.0:
            return False
        if self._stream("agent_restart", "agent").random() < plan.agent_restart_rate:
            self._record(
                now, "agent_restarted", "agent",
                f"blackout={AGENT_RESTART_BLACKOUT_NS}ns",
            )
            return True
        return False

    def retry_jitter(self, max_ns: int, victim: str = "-") -> int:
        """Seeded jitter for one victim's retransmission backoff.

        Keyed by the victim flow so concurrent victims' draws are
        independent of one another's retry timing.
        """
        if max_ns <= 0:
            return 0
        return self._stream("retry_jitter", victim).randrange(0, max_ns)

    # -- clocks ----------------------------------------------------------------

    def clock_skew_for(self, switch_name: str) -> int:
        """The constant clock offset of one switch (memoized per switch).

        Drawn from a stream keyed by the switch *name*, not draw order, so
        every switch's skew is independent of which switch is asked first.
        """
        if self.plan.clock_skew_max_ns <= 0:
            return 0
        skew = self._skew.get(switch_name)
        if skew is None:
            rng = random.Random(f"{self.plan.seed}/skew/{switch_name}")
            max_ns = self.plan.clock_skew_max_ns
            skew = rng.randint(-max_ns, max_ns)
            self._skew[switch_name] = skew
            if skew != 0:
                self._record(0, "clock_skewed", switch_name, f"skew={skew}ns")
        return skew


def make_injector(plan: Optional[FaultPlan]) -> Optional[FaultInjector]:
    """Build an injector, or ``None`` for an absent/no-op plan — call sites
    guard on ``None`` so the fault-free hot path pays a single comparison."""
    if plan is None or not plan.enabled:
        return None
    return FaultInjector(plan)
