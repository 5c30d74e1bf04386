"""Flow lifecycle objects shared by the NIC model and the experiment harness."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

from .packet import DATA_PRIORITY, FlowKey


@dataclass
class Flow:
    """One unidirectional RDMA flow (a message of ``size`` bytes).

    Mutable progress fields are updated by the sending host; the experiment
    harness reads them for FCT/goodput statistics and ground truth.
    """

    key: FlowKey
    src_host: str
    dst_host: str
    size: int
    start_time: int
    priority: int = DATA_PRIORITY
    # Application-limited rate cap (bytes/s); None means NIC line rate.
    max_rate: Optional[float] = None
    # Progress (owned by the sender NIC).
    bytes_sent: int = 0
    bytes_acked: int = 0
    packets_sent: int = 0
    finish_time: Optional[int] = None
    # Pacing state.
    next_pacing_time: int = 0
    # Recent RTT samples as (time, rtt) pairs, newest last.
    rtt_samples: List[tuple] = field(default_factory=list)
    max_rtt_samples: int = 64

    @property
    def completed(self) -> bool:
        return self.finish_time is not None

    def fct(self) -> Optional[int]:
        """Flow completion time in ns, or ``None`` while in flight."""
        if self.finish_time is None:
            return None
        return self.finish_time - self.start_time

    def record_rtt(self, time_ns: int, rtt_ns: int) -> None:
        self.rtt_samples.append((time_ns, rtt_ns))
        if len(self.rtt_samples) > self.max_rtt_samples:
            del self.rtt_samples[: -self.max_rtt_samples]

    def latest_rtt(self) -> Optional[int]:
        if not self.rtt_samples:
            return None
        return self.rtt_samples[-1][1]

    def __str__(self) -> str:
        return f"Flow({self.key}, {self.size}B from {self.src_host})"
