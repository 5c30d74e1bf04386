"""Packet and flow-key models for the RDMA simulator.

Packets are plain mutable objects (``__slots__`` for speed) covering the
frame types the paper's system touches: RoCEv2 data, ACKs, DCQCN CNPs, PFC
PAUSE/RESUME frames, and Hawkeye polling packets (§3.4, Figure 5).
"""

from __future__ import annotations

import enum
import zlib
from dataclasses import dataclass
from typing import Optional

# Traffic classes.  RoCEv2 data rides the lossless priority; ACK/CNP and
# Hawkeye polling packets ride the control priority, which PFC never pauses
# (the paper assigns polling packets "the same priority as control packets
# (e.g., CNP) to avoid potential queuing delay").
DATA_PRIORITY = 3
CONTROL_PRIORITY = 6

PFC_FRAME_SIZE = 64
ACK_SIZE = 64
CNP_SIZE = 64
POLLING_PACKET_SIZE = 64

# IEEE 802.1Qbb: one pause quantum is the time to transmit 512 bits.
PAUSE_QUANTA_BITS = 512
MAX_PAUSE_QUANTA = 0xFFFF


@dataclass(frozen=True, order=True)
class FlowKey:
    """A RoCEv2 5-tuple identifying one flow.

    Keys are hashed on every per-packet dict access across the simulator and
    telemetry, so the hash is computed once at construction — and it is the
    *stable* CRC32 (not Python's per-process salted hash), which keeps any
    hash-ordered container behaviour identical between the serial runner and
    parallel worker processes.
    """

    src_ip: str
    dst_ip: str
    src_port: int
    dst_port: int
    protocol: int = 17  # RoCEv2 rides UDP

    def __post_init__(self) -> None:
        blob = (
            f"{self.src_ip}|{self.dst_ip}|{self.src_port}|"
            f"{self.dst_port}|{self.protocol}"
        ).encode()
        object.__setattr__(self, "_crc", zlib.crc32(blob))

    def __hash__(self) -> int:  # process-independent, precomputed
        return self._crc  # type: ignore[attr-defined]

    def stable_hash(self) -> int:
        """Deterministic 32-bit hash (Python's ``hash`` is salted per run)."""
        return self._crc  # type: ignore[attr-defined]

    def __str__(self) -> str:
        return (
            f"{self.src_ip}:{self.src_port}->{self.dst_ip}:{self.dst_port}"
            f"/{self.protocol}"
        )


class PacketType(enum.Enum):
    DATA = "data"
    ACK = "ack"
    CNP = "cnp"
    PFC = "pfc"
    POLLING = "polling"


class PollingFlag(enum.IntEnum):
    """Polling flag specifications (Table 1)."""

    USELESS = 0b00
    VICTIM_PATH = 0b01
    PFC_CAUSALITY = 0b10
    BOTH = 0b11

    @property
    def traces_victim_path(self) -> bool:
        return bool(self.value & 0b01)

    @property
    def traces_pfc(self) -> bool:
        return bool(self.value & 0b10)


class Packet:
    """One simulated frame.

    ``flow`` is set for DATA/ACK/CNP/POLLING; PFC frames are per-port and
    carry ``pfc_priority``/``pause_quanta`` instead (quanta 0 is a RESUME).
    ``ingress_port`` is transient per-hop bookkeeping used for buffer
    accounting and the PFC causality meters.

    Packets are pooled: terminal consumers (a host absorbing a frame, a
    switch absorbing a PFC/polling frame) call :meth:`recycle`, and the
    factory classmethods reuse recycled objects instead of allocating.  A
    recycled packet must never be retained — observers and telemetry read
    fields synchronously during dispatch and keep only scalars, which is
    what makes the freelist safe.
    """

    __slots__ = (
        "ptype",
        "flow",
        "size",
        "priority",
        "seq",
        "create_time",
        "ecn_capable",
        "ce_marked",
        "pfc_priority",
        "pause_quanta",
        "polling_flag",
        "ingress_port",
        "echo_time",
        "acked_bytes",
        "is_last",
        "hops",
    )

    def __init__(
        self,
        ptype: PacketType,
        size: int,
        priority: int,
        flow: Optional[FlowKey] = None,
        seq: int = 0,
        create_time: int = 0,
    ) -> None:
        self.ptype = ptype
        self.flow = flow
        self.size = size
        self.priority = priority
        self.seq = seq
        self.create_time = create_time
        self.ecn_capable = ptype is PacketType.DATA
        self.ce_marked = False
        self.pfc_priority = 0
        self.pause_quanta = 0
        self.polling_flag = PollingFlag.USELESS
        self.ingress_port: Optional[int] = None
        self.echo_time = 0
        self.acked_bytes = 0
        self.is_last = False
        self.hops = 0

    # -- freelist -------------------------------------------------------------

    _pool: list = []
    _POOL_MAX = 8192

    @classmethod
    def _new(
        cls,
        ptype: PacketType,
        size: int,
        priority: int,
        flow: Optional[FlowKey] = None,
        seq: int = 0,
        create_time: int = 0,
    ) -> "Packet":
        """Pooled allocation: reuse a recycled packet when one is available."""
        pool = cls._pool
        if not pool:
            return cls(ptype, size, priority, flow=flow, seq=seq, create_time=create_time)
        pkt = pool.pop()
        pkt.ptype = ptype
        pkt.flow = flow
        pkt.size = size
        pkt.priority = priority
        pkt.seq = seq
        pkt.create_time = create_time
        pkt.ecn_capable = ptype is PacketType.DATA
        pkt.ce_marked = False
        pkt.pfc_priority = 0
        pkt.pause_quanta = 0
        pkt.polling_flag = PollingFlag.USELESS
        pkt.ingress_port = None
        pkt.echo_time = 0
        pkt.acked_bytes = 0
        pkt.is_last = False
        pkt.hops = 0
        return pkt

    def recycle(self) -> None:
        """Return a dead packet to the pool (caller must drop its reference)."""
        pool = Packet._pool
        if len(pool) < Packet._POOL_MAX:
            pool.append(self)

    # -- constructors ---------------------------------------------------------

    @classmethod
    def data(
        cls,
        flow: FlowKey,
        size: int,
        seq: int,
        now: int,
        priority: int = DATA_PRIORITY,
        is_last: bool = False,
    ) -> "Packet":
        pkt = cls._new(PacketType.DATA, size, priority, flow=flow, seq=seq, create_time=now)
        pkt.is_last = is_last
        return pkt

    @classmethod
    def ack(cls, flow: FlowKey, now: int, echo_time: int, acked_bytes: int) -> "Packet":
        """ACK for ``flow`` (the key is the *data* flow's key, not reversed)."""
        pkt = cls._new(PacketType.ACK, ACK_SIZE, CONTROL_PRIORITY, flow=flow, create_time=now)
        pkt.echo_time = echo_time
        pkt.acked_bytes = acked_bytes
        return pkt

    @classmethod
    def cnp(cls, flow: FlowKey, now: int) -> "Packet":
        return cls._new(PacketType.CNP, CNP_SIZE, CONTROL_PRIORITY, flow=flow, create_time=now)

    @classmethod
    def pfc(cls, priority: int, quanta: int, now: int) -> "Packet":
        if not 0 <= quanta <= MAX_PAUSE_QUANTA:
            raise ValueError(f"pause quanta {quanta} out of range")
        pkt = cls._new(PacketType.PFC, PFC_FRAME_SIZE, CONTROL_PRIORITY, create_time=now)
        pkt.pfc_priority = priority
        pkt.pause_quanta = quanta
        return pkt

    @classmethod
    def polling(cls, victim: FlowKey, flag: PollingFlag, now: int) -> "Packet":
        """A Hawkeye polling packet (Figure 5): victim 5-tuple + flag."""
        pkt = cls._new(
            PacketType.POLLING,
            POLLING_PACKET_SIZE,
            CONTROL_PRIORITY,
            flow=victim,
            create_time=now,
        )
        pkt.polling_flag = flag
        return pkt

    @property
    def is_pause(self) -> bool:
        return self.ptype is PacketType.PFC and self.pause_quanta > 0

    @property
    def is_resume(self) -> bool:
        return self.ptype is PacketType.PFC and self.pause_quanta == 0

    def copy_polling(self, flag: "PollingFlag", now: int) -> "Packet":
        """Duplicate a polling packet with a (possibly different) flag."""
        assert self.ptype is PacketType.POLLING and self.flow is not None
        dup = Packet.polling(self.flow, flag, now)
        dup.hops = self.hops
        return dup

    def __repr__(self) -> str:
        if self.ptype is PacketType.PFC:
            kind = "PAUSE" if self.is_pause else "RESUME"
            return f"Packet(PFC {kind} prio={self.pfc_priority})"
        if self.ptype is PacketType.POLLING:
            return f"Packet(POLLING flag={self.polling_flag:#04b} victim={self.flow})"
        return f"Packet({self.ptype.value} {self.flow} seq={self.seq} size={self.size})"


def pause_quanta_to_ns(quanta: int, bandwidth_bytes_per_sec: float) -> int:
    """Duration of ``quanta`` pause quanta on a link of the given speed."""
    bits = quanta * PAUSE_QUANTA_BITS
    return max(0, int(round(bits / 8 * 1e9 / bandwidth_bytes_per_sec)))
