"""The Network binds topology + routing + simulator into a runnable fabric."""

from __future__ import annotations

from typing import Callable, Dict, List, Optional

from ..topology.graph import PortRef, Topology
from ..topology.routing import RoutingTable
from ..units import serialization_delay_ns
from .config import SimConfig
from .engine import Simulator
from .flow import Flow
from .host import Host
from .packet import ACK_SIZE, FlowKey, Packet
from .shard import RemoteHostStub, current_build_context, packet_to_wire
from .switch import Switch, SwitchObserver


class Network:
    """A simulated RDMA fabric.

    Construction wires one :class:`Switch` per topology switch and one
    :class:`Host` per topology host, all sharing a single event loop.
    Telemetry systems attach observers to switches; the collection layer
    installs polling handlers; workloads start :class:`Flow` objects.

    When a shard build context is active (``repro.sim.shard``), only the
    nodes assigned to the current shard are instantiated; remote hosts
    become stubs, and frames addressed to remote nodes are appended to
    :attr:`outbox` for the orchestrator to ship at the next epoch barrier.
    """

    def __init__(
        self,
        topology: Topology,
        routing: Optional[RoutingTable] = None,
        config: Optional[SimConfig] = None,
    ) -> None:
        self.topology = topology
        self.routing = routing if routing is not None else RoutingTable(topology)
        self.config = config if config is not None else SimConfig()
        self.sim = Simulator()
        self.switches: Dict[str, Switch] = {}
        self.hosts: Dict[str, object] = {}
        self.flows: List[Flow] = []
        # node name -> bound receive method; saves a topology lookup plus a
        # closure allocation on every single frame delivery.  In a shard
        # view only local nodes appear here — a missed lookup routes the
        # frame to the outbox.
        self._receive_of: Dict[str, object] = {}
        # Per-source delivery sequence numbers: the canonical delivery
        # order key is (source node, seq), identical no matter which
        # process scheduled the delivery.
        self._send_seq: Dict[str, int] = {}
        self.outbox: List[tuple] = []
        self.shard_id: Optional[int] = None
        self._build()

    def _build(self) -> None:
        ctx = current_build_context()
        if ctx is not None:
            self.shard_id = ctx.shard_id
        for node in self.topology.switches:
            if ctx is not None and not ctx.is_local(node.name):
                continue
            switch = Switch(node.name, self, self.config)
            self.switches[node.name] = switch
            self._receive_of[node.name] = switch.receive
        for node in self.topology.hosts:
            ip = self.topology.host_ip(node.name)
            if ctx is not None and not ctx.is_local(node.name):
                self.hosts[node.name] = RemoteHostStub(node.name, ip)
                continue
            host = Host(node.name, ip, self, self.config)
            self.hosts[node.name] = host
            self._receive_of[node.name] = host.receive
        for link in self.topology.links:
            self._wire_end(link.a, link.b, link.bandwidth, link.delay_ns)
            self._wire_end(link.b, link.a, link.bandwidth, link.delay_ns)

    def _wire_end(self, end: PortRef, peer: PortRef, bandwidth: float, delay_ns: int) -> None:
        node = self.topology.node(end.node)
        peer_is_host = self.topology.node(peer.node).is_host
        if node.is_switch:
            switch = self.switches.get(end.node)
            if switch is not None:  # absent only in a shard view
                switch.attach_port(end.port, bandwidth, delay_ns, peer, peer_is_host)
        else:
            # Stubs record bandwidth/delay too: builders read them.
            self.hosts[end.node].attach_uplink(bandwidth, delay_ns, peer)

    # -- runtime ------------------------------------------------------------------

    def deliver(self, target: PortRef, pkt: Packet, delay_ns: int, src: str) -> None:
        """Schedule delivery of ``pkt`` from node ``src`` at endpoint ``target``.

        Deliveries go through the simulator's per-timestamp delivery band
        keyed by ``(send time, trigger schedule time, src, per-source
        seq)``; frames addressed to nodes this shard does not own are
        flattened into the outbox instead.
        """
        seq = self._send_seq.get(src, 0) + 1
        self._send_seq[src] = seq
        receive = self._receive_of.get(target.node)
        now = self.sim.now
        key = (now, self.sim.exec_sched, src, seq)
        if receive is not None:
            self.sim.schedule_delivery(now + delay_ns, key, receive, pkt, target.port)
        else:
            self.outbox.append(
                (now + delay_ns, target.node, target.port, key, packet_to_wire(pkt))
            )

    def deliver_wire_batch(self, frames: List[tuple]) -> None:
        """Queue a barrier epoch's worth of cross-shard frames.

        Each was shipped from another shard (see :data:`WireFrame`) and is
        queued for its arrival instant.  Insertion order is irrelevant: the
        delivery band sorts by the canonical key.
        """
        from .shard import packet_from_wire

        schedule = self.sim.schedule_delivery
        receive_of = self._receive_of
        for arrival_ns, node, port, key, wire in frames:
            schedule(arrival_ns, key, receive_of[node], packet_from_wire(wire), port)

    def start_flow(self, flow: Flow) -> None:
        host = self.hosts[flow.src_host]
        if isinstance(host, RemoteHostStub):
            return  # the source host's home shard runs this flow
        self.flows.append(flow)
        host.start_flow(flow)

    def run(
        self,
        until_ns: int,
        max_events: Optional[int] = None,
        stop: Optional[Callable[[], bool]] = None,
        stop_every: int = 1,
    ) -> None:
        self.sim.run(until_ns, max_events, stop, stop_every)

    # -- helpers --------------------------------------------------------------------

    def switch(self, name: str) -> Switch:
        return self.switches[name]

    def host(self, name: str) -> Host:
        return self.hosts[name]

    def add_switch_observer(self, obs: SwitchObserver, switches: Optional[List[str]] = None) -> None:
        """Attach one observer instance to all (or selected) switches."""
        names = switches if switches is not None else list(self.switches)
        for name in names:
            self.switches[name].add_observer(obs)

    def estimate_base_rtt(self, src_host: str, dst_ip: str, flow_key: object = None) -> int:
        """Unloaded RTT estimate for a path: store-and-forward both ways."""
        path = self.routing.flow_path(src_host, dst_ip, flow_key if flow_key is not None else src_host)
        rtt = 0
        for ref in path:
            link = self.topology.link_at(ref)
            rtt += link.delay_ns + serialization_delay_ns(
                self.config.data_packet_size, link.bandwidth
            )
            rtt += link.delay_ns + serialization_delay_ns(ACK_SIZE, link.bandwidth)
        return rtt

    def max_base_rtt(self) -> int:
        """A loose upper bound on the unloaded RTT across the fabric.

        The paper sets detection thresholds relative to the maximum RTT
        "determined by the maximum hop count" (§5); we approximate it with
        the diameter assuming uniform links.
        """
        hosts = self.topology.hosts
        if len(hosts) < 2:
            return 0
        worst = 0
        probe = hosts[0]
        for other in hosts[1:]:
            dst_ip = self.topology.host_ip(other.name)
            worst = max(worst, self.estimate_base_rtt(probe.name, dst_ip))
            src_ip = self.topology.host_ip(probe.name)
            worst = max(worst, self.estimate_base_rtt(other.name, src_ip))
        return worst

    def make_flow(
        self,
        src_host: str,
        dst_host: str,
        size: int,
        start_time: int,
        src_port: int = 10000,
        dst_port: int = 4791,
    ) -> Flow:
        """Convenience constructor resolving IPs from host names."""
        key = FlowKey(
            src_ip=self.topology.host_ip(src_host),
            dst_ip=self.topology.host_ip(dst_host),
            src_port=src_port,
            dst_port=dst_port,
        )
        return Flow(key=key, src_host=src_host, dst_host=dst_host, size=size, start_time=start_time)
