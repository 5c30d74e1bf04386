"""Simplified DCQCN congestion control.

The shape matters more than the constants here: flows start at line rate
(as RDMA NICs do), multiplicatively back off when CNPs arrive, and recover
through fast-recovery then additive-increase stages.  That is enough to
reproduce the congestion-control interactions the paper discusses (queue
buildup from PFC falsifying congestion signals, line-rate bursts, etc.).
"""

from __future__ import annotations

from ..units import usec

# DCQCN gains (rates in bytes/s).
ALPHA_G = 1.0 / 16.0
RATE_DECREASE_INTERVAL_NS = usec(50)  # min gap between decreases
RECOVERY_INTERVAL_NS = usec(55)       # rate-recovery / alpha timer period
ADDITIVE_INCREASE = 40e6 / 8          # 40 Mbps
FAST_RECOVERY_STAGES = 5
MIN_RATE = 1e6 / 8                    # 1 Mbps floor


class DcqcnState:
    """Per-flow DCQCN sender state."""

    def __init__(self, line_rate: float) -> None:
        self.line_rate = line_rate
        self.rate = line_rate  # bytes/s; line-rate start
        self.target_rate = line_rate
        self.alpha = 1.0
        self.last_decrease_time = -(10**18)
        self.recovery_stage = 0
        self.cnp_seen_since_alpha_update = False

    def on_cnp(self, now: int) -> bool:
        """Process a CNP; returns True if a rate decrease was applied."""
        self.cnp_seen_since_alpha_update = True
        if now - self.last_decrease_time < RATE_DECREASE_INTERVAL_NS:
            return False
        self.alpha = (1 - ALPHA_G) * self.alpha + ALPHA_G
        self.target_rate = self.rate
        self.rate = max(MIN_RATE, self.rate * (1 - self.alpha / 2))
        self.recovery_stage = 0
        self.last_decrease_time = now
        return True

    def on_recovery_timer(self) -> None:
        """Periodic rate recovery: fast recovery then additive increase."""
        if self.rate >= self.line_rate:
            self.rate = self.line_rate
            return
        self.recovery_stage += 1
        if self.recovery_stage > FAST_RECOVERY_STAGES:
            self.target_rate = min(
                self.line_rate, self.target_rate + ADDITIVE_INCREASE
            )
        self.rate = min(self.line_rate, (self.rate + self.target_rate) / 2)

    def on_alpha_timer(self) -> None:
        """Alpha decays while no CNPs arrive (DCQCN's alpha update timer)."""
        if self.cnp_seen_since_alpha_update:
            self.cnp_seen_since_alpha_update = False
            return
        self.alpha = (1 - ALPHA_G) * self.alpha
