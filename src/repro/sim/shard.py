"""Shard-local fabric views for the multiprocess simulator.

A *shard view* is an ordinary :class:`~repro.sim.network.Network` built
while a shard build context is active: only the nodes assigned to this
shard become real :class:`Switch`/:class:`Host` objects, remote hosts are
replaced by :class:`RemoteHostStub` placeholders (so builders can read
link attributes and schedule injections without special-casing), and
frames addressed to remote nodes land in the network's outbox instead of
the local event loop.  The orchestrator ships outboxes between workers at
each conservative-lookahead epoch boundary; see
``repro.experiments.shardrun``.

Packets cross process boundaries as plain tuples (:func:`packet_to_wire` /
:func:`packet_from_wire`) together with their canonical ``(send time,
trigger schedule time, source node, per-source sequence)`` delivery key,
which the receiving shard feeds into
:meth:`Simulator.schedule_delivery` — so the merged per-timestamp delivery
order is identical to the single-process engine's.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass
from typing import Dict, Iterator, Optional, Tuple

from ..topology.graph import PortRef
from .packet import FlowKey, Packet, PacketType, PollingFlag

# One in-flight frame between shards: (arrival_ns, target_node,
# target_port, (send_time, trigger_sched, src, seq), wire_tuple)
WireFrame = Tuple[int, str, int, Tuple[int, int, str, int], tuple]


@dataclass(frozen=True)
class ShardBuildContext:
    """Active while a worker builds its shard view of the scenario."""

    assignment: Dict[str, int]
    shard_id: int

    def is_local(self, node_name: str) -> bool:
        return self.assignment[node_name] == self.shard_id


_BUILD_CONTEXT: Optional[ShardBuildContext] = None


def current_build_context() -> Optional[ShardBuildContext]:
    return _BUILD_CONTEXT


@contextmanager
def shard_build_context(
    assignment: Dict[str, int], shard_id: int
) -> Iterator[ShardBuildContext]:
    """Make every Network constructed inside the block a shard view."""
    global _BUILD_CONTEXT
    if _BUILD_CONTEXT is not None:
        raise RuntimeError("shard build context is already active")
    ctx = ShardBuildContext(assignment=assignment, shard_id=shard_id)
    _BUILD_CONTEXT = ctx
    try:
        yield ctx
    finally:
        _BUILD_CONTEXT = None


class RemoteHostStub:
    """Placeholder for a host simulated by another shard.

    Scenario builders run unmodified in every worker; they may read link
    attributes (``bandwidth``) off any host and schedule injections on it.
    The stub absorbs those calls as no-ops — the host's home shard runs
    the real thing.  Starting a flow on a stub is a bug (the network
    filters remote-source flows before they reach the host), so that one
    raises.
    """

    __slots__ = (
        "name",
        "ip",
        "bandwidth",
        "delay_ns",
        "peer",
        "rtt_listeners",
        "completion_listeners",
        "flows",
        "tx_bytes",
        "tx_pkts",
        "pause_frames_received",
        "injected_pause_frames",
    )

    def __init__(self, name: str, ip: str) -> None:
        self.name = name
        self.ip = ip
        self.bandwidth = 0.0
        self.delay_ns = 0
        self.peer: Optional[PortRef] = None
        self.rtt_listeners: list = []
        self.completion_listeners: list = []
        self.flows: dict = {}
        self.tx_bytes = 0
        self.tx_pkts = 0
        self.pause_frames_received = 0
        self.injected_pause_frames = 0

    def attach_uplink(
        self, bandwidth: float, delay_ns: int, peer: PortRef, peer_receive=None
    ) -> None:
        self.bandwidth = bandwidth
        self.delay_ns = delay_ns
        self.peer = peer

    def start_flow(self, flow) -> None:
        raise RuntimeError(
            f"flow {flow.key} starts on remote host {self.name}; "
            "the network must filter remote-source flows"
        )

    def start_pfc_injection(self, *args, **kwargs) -> None:
        pass  # injected by the host's home shard

    def inject_polling(self, *args, **kwargs) -> None:
        pass  # injected by the host's home shard


def packet_to_wire(pkt: Packet) -> tuple:
    """Flatten a packet for transport to another shard.

    ``ingress_port`` is deliberately dropped — it is per-hop bookkeeping
    the receiving node re-stamps on arrival.
    """
    flow = pkt.flow
    return (
        pkt.ptype.value,
        None
        if flow is None
        else (flow.src_ip, flow.dst_ip, flow.src_port, flow.dst_port, flow.protocol),
        pkt.size,
        pkt.priority,
        pkt.seq,
        pkt.create_time,
        pkt.ecn_capable,
        pkt.ce_marked,
        pkt.pfc_priority,
        pkt.pause_quanta,
        int(pkt.polling_flag),
        pkt.echo_time,
        pkt.acked_bytes,
        pkt.is_last,
        pkt.hops,
    )


def packet_from_wire(wire: tuple) -> Packet:
    """Rebuild a packet shipped from another shard (pool-allocated)."""
    (
        ptype,
        flow5,
        size,
        priority,
        seq,
        create_time,
        ecn_capable,
        ce_marked,
        pfc_priority,
        pause_quanta,
        polling_flag,
        echo_time,
        acked_bytes,
        is_last,
        hops,
    ) = wire
    pkt = Packet._new(
        PacketType(ptype),
        size,
        priority,
        flow=None if flow5 is None else FlowKey(*flow5),
        seq=seq,
        create_time=create_time,
    )
    pkt.ecn_capable = ecn_capable
    pkt.ce_marked = ce_marked
    pkt.pfc_priority = pfc_priority
    pkt.pause_quanta = pause_quanta
    pkt.polling_flag = PollingFlag(polling_flag)
    pkt.echo_time = echo_time
    pkt.acked_bytes = acked_bytes
    pkt.is_last = is_last
    pkt.hops = hops
    return pkt
