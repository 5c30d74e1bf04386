"""Deterministic fault plans for the collection pipeline.

Hawkeye's control loop — agent trigger, polling packet, CPU mirror,
register DMA, report shipping, analysis — rides the very fabric it
diagnoses.  A :class:`FaultPlan` describes, as seeded probabilities, the
ways each hop can fail in production:

- polling packets crossing PFC-paused ports are lost or corrupted
  (lossy control VLAN sharing the congested lossless class);
- report packets from the switch CPU are best-effort UDP: lost,
  truncated by MTU pressure, delayed or reordered;
- the switch-CPU register DMA fails outright or returns a stale window
  (Tofino REGISTER_SYNC contention with other control-plane readers);
- the DPU agent restarts, losing its RTT state and missing triggers;
- per-switch clocks skew, so report timestamps disagree.

A plan is pure data (frozen, picklable); all randomness lives in the
:class:`~repro.faults.injector.FaultInjector` built from it, which draws
from per-category streams seeded by ``seed`` so the same plan always
yields the same incident sequence.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import Optional

from ..units import usec

# How late a delayed report arrives: uniform in [1, this).
REPORT_DELAY_MAX_NS = usec(500)
# How old the window a stale register DMA returns is.
DMA_STALE_AGE_NS = usec(500)
# How long a restarted agent process is blind.
AGENT_RESTART_BLACKOUT_NS = usec(100)

# End-to-end reliability, on when ``RunConfig.retry`` is.  The agent
# retransmits a victim's polling packet when no report has been delivered
# within REPORT_TIMEOUT_NS, backing off exponentially with seeded jitter;
# the collector retries failed register DMA reads on a bounded budget.
# All timers are sim-time, so runs stay deterministic.
REPORT_TIMEOUT_NS = usec(300)
MAX_RETRIES = 3
BACKOFF_FACTOR = 2.0
JITTER_NS = usec(20)  # uniform [0, JITTER_NS), drawn from the plan seed
DMA_RETRY_BUDGET = 3
DMA_RETRY_DELAY_NS = usec(50)


def backoff_ns(attempt: int) -> int:
    """Deterministic (pre-jitter) wait before retry ``attempt`` (1-based)."""
    return int(REPORT_TIMEOUT_NS * BACKOFF_FACTOR ** (attempt - 1))


_RATE_FIELDS = (
    "polling_loss_rate",
    "polling_corrupt_rate",
    "report_loss_rate",
    "report_truncate_rate",
    "report_delay_rate",
    "dma_failure_rate",
    "dma_stale_rate",
    "agent_restart_rate",
)


@dataclass(frozen=True)
class FaultPlan:
    """Seeded description of every fault the chaos harness can inject."""

    seed: int = 1

    # -- polling packets (in the data plane, per switch hop) ----------------
    polling_loss_rate: float = 0.0
    polling_corrupt_rate: float = 0.0  # CRC-failed packets are discarded

    # -- report packets (switch CPU -> analyzer, best effort) ---------------
    report_loss_rate: float = 0.0
    report_truncate_rate: float = 0.0  # MTU pressure: only the newest epoch survives
    report_delay_rate: float = 0.0

    # -- switch-CPU register collection -------------------------------------
    dma_failure_rate: float = 0.0
    dma_stale_rate: float = 0.0

    # -- host agent ----------------------------------------------------------
    agent_restart_rate: float = 0.0  # per stall-check tick

    # -- clocks --------------------------------------------------------------
    clock_skew_max_ns: int = 0  # per-switch constant offset in [-max, +max]

    def __post_init__(self) -> None:
        for name in _RATE_FIELDS:
            rate = getattr(self, name)
            if not 0.0 <= rate <= 1.0:
                raise ValueError(f"{name} must be in [0, 1], got {rate}")
        if self.clock_skew_max_ns < 0:
            raise ValueError("clock_skew_max_ns must be >= 0")

    @property
    def enabled(self) -> bool:
        """Does this plan inject anything at all?"""
        return any(getattr(self, name) > 0.0 for name in _RATE_FIELDS) or (
            self.clock_skew_max_ns > 0
        )

    @classmethod
    def lossy(cls, loss_rate: float, seed: int = 1) -> "FaultPlan":
        """The canonical chaos-sweep plan: symmetric control-path loss.

        Polling packets and report packets are dropped independently with
        the same probability — the two directions of the control loop share
        the congested fabric.
        """
        return cls(
            seed=seed,
            polling_loss_rate=loss_rate,
            report_loss_rate=loss_rate,
        )

    def describe(self) -> str:
        active = [
            f"{f.name}={getattr(self, f.name)}"
            for f in fields(self)
            if f.name != "seed" and getattr(self, f.name) != f.default
        ]
        return f"FaultPlan(seed={self.seed}" + (
            ", " + ", ".join(active) if active else ""
        ) + ")"


def plan_or_none(plan: Optional[FaultPlan]) -> Optional[FaultPlan]:
    """Normalize: a plan that injects nothing is treated as no plan at all,
    keeping the fault-free hot path free of per-event injector calls."""
    if plan is None or not plan.enabled:
        return None
    return plan
