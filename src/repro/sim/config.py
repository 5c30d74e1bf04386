"""Simulation parameters: the fixed ones as module constants, the ones a
scenario varies in one dataclass.

Defaults follow common RoCEv2 deployments (and the HPCC/DCQCN NS-3 configs
the paper builds on): 1 KB MTU-sized data packets, PFC Xoff/Xon per ingress
(port, priority), RED-style ECN marking at egress, DCQCN-like end-to-end
congestion control.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..units import KB, usec

# Quanta carried in every PAUSE frame, by switches and injecting hosts.
PAUSE_QUANTA = 0xFFFF
# While an ingress stays above Xoff, re-send PAUSE every refresh interval
# so the upstream pause never lapses (matching NIC/switch behaviour).
PFC_REFRESH_INTERVAL_NS = usec(50)
# Per-flow CNP generation rate limit at the receiver.
CNP_INTERVAL_NS = usec(50)
# Data packets are MTU-sized; the last packet of a flow carries the rest.
DATA_PACKET_SIZE = 1 * KB
# The receiver ACKs every this many data packets (and a flow's last one).
ACK_EVERY_PACKETS = 4
# Senders run DCQCN rate control (its gains live in :mod:`.cc`).
DCQCN_ENABLED = True
# RED's marking probability at ``kmax`` (DCQCN's recommended 0.2).
ECN_PMAX = 0.2


@dataclass
class PfcConfig:
    """Per-(ingress port, priority) PFC thresholds."""

    xoff_bytes: int = 40 * KB
    xon_bytes: int = 20 * KB

    def __post_init__(self) -> None:
        if self.xon_bytes >= self.xoff_bytes:
            raise ValueError("Xon must be strictly below Xoff")


@dataclass
class EcnConfig:
    """RED-style ECN marking at the egress queue (DCQCN-compatible)."""

    kmin_bytes: int = 40 * KB
    kmax_bytes: int = 160 * KB

    def mark_probability(self, queue_bytes: int) -> float:
        if queue_bytes <= self.kmin_bytes:
            return 0.0
        if queue_bytes >= self.kmax_bytes:
            return 1.0
        span = self.kmax_bytes - self.kmin_bytes
        return ECN_PMAX * (queue_bytes - self.kmin_bytes) / span


@dataclass
class SimConfig:
    """Top-level knobs for one simulation run."""

    pfc: PfcConfig = field(default_factory=PfcConfig)
    ecn: EcnConfig = field(default_factory=EcnConfig)
    seed: int = 1
