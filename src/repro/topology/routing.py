"""Routing: shortest-path ECMP tables plus misconfiguration injection.

Routing is computed once from the topology (BFS from every host) into
per-switch next-hop tables keyed by destination IP.  ECMP picks among
equal-cost ports with a deterministic CRC32 hash of the flow 5-tuple, so
the simulator and the offline analyzer always agree on a flow's path.

Deadlock scenarios (§2.1) are crafted by *static route overrides* that force
selected ``(switch, destination)`` pairs onto specific ports, reproducing
the "routing misconfiguration" root causes the paper injects.
"""

from __future__ import annotations

import zlib
from collections import deque
from typing import Dict, List, Optional, Sequence, Tuple

from .graph import PortRef, Topology

MAX_PATH_HOPS = 64


class RoutingError(Exception):
    """Raised when no route exists or a path exceeds the hop cap."""


def _stable_hash(*parts: object) -> int:
    """A process-independent hash (Python's ``hash`` is salted per run)."""
    blob = "|".join(str(p) for p in parts).encode()
    return zlib.crc32(blob)


class RoutingTable:
    """Per-switch ECMP next-hop tables with static overrides.

    The table maps ``(switch_name, dst_ip)`` to the list of equal-cost
    egress ports.  ``select_port`` resolves the ECMP choice for a concrete
    flow; ``flow_path`` walks the whole path (used by the victim-path
    polling forwarding and by ground-truth bookkeeping).
    """

    def __init__(self, topology: Topology) -> None:
        self.topology = topology
        # switch -> dst_ip -> sorted list of egress ports
        self._ecmp: Dict[str, Dict[str, List[int]]] = {}
        self._static: Dict[Tuple[str, str], int] = {}
        # Resolved (switch, dst_ip, flow) -> port choices.  ``select_port``
        # runs once per packet per hop; the ECMP hash is deterministic, so
        # the answer is a pure function of this key and of the overrides —
        # the cache is flushed whenever overrides change.
        self._select_cache: Dict[Tuple, int] = {}
        self.select_cache_hits = 0
        self.select_cache_misses = 0
        self._build()

    # -- construction --------------------------------------------------------

    def _build(self) -> None:
        """Build every host's next-hop tables with one BFS per ToR.

        A single-homed host's distance to any other node is exactly one
        more than its ToR's, so all hosts behind one ToR share the same
        shortest-path next hops everywhere except at the ToR itself
        (where the next hop is the host-facing port).  BFS therefore runs
        once per *edge switch*, not once per host, over a plain-tuple
        adjacency list — at fleet scale (K=16, 1024 hosts) this takes the
        table build from minutes to seconds.  Hosts that are not
        single-homed (only reachable by driving the table directly in
        tests) keep the exact per-host BFS.
        """
        topo = self.topology
        for sw in topo.switches:
            self._ecmp[sw.name] = {}
        # node -> [(local_port, remote_node)], in link-addition order —
        # the same order ``Topology.neighbors`` yields, without paying a
        # PortRef construction and hash per step.
        adj: Dict[str, List[Tuple[int, str]]] = {n.name: [] for n in topo.nodes}
        for link in topo.links:
            adj[link.a.node].append((link.a.port, link.b.node))
            adj[link.b.node].append((link.b.port, link.a.node))

        by_tor: Dict[str, List[str]] = {}
        for host in topo.hosts:
            entries = adj[host.name]
            if len(entries) == 1:
                by_tor.setdefault(entries[0][1], []).append(host.name)
            else:
                self._build_for_host(host.name)

        switch_names = [sw.name for sw in topo.switches]
        for tor, host_names in by_tor.items():
            dist: Dict[str, int] = {tor: 0}
            frontier = deque([tor])
            while frontier:
                node = frontier.popleft()
                d = dist[node] + 1
                for _, remote in adj[node]:
                    if remote not in dist:
                        dist[remote] = d
                        frontier.append(remote)
            dist_get = dist.get
            # Shared next-hop port lists for every switch except the ToR.
            shared: List[Tuple[str, List[int]]] = []
            for sw in switch_names:
                dsw = dist_get(sw)
                if dsw is None or sw == tor:
                    continue
                ports = sorted(
                    port
                    for port, remote in adj[sw]
                    if dist_get(remote) == dsw - 1
                )
                if ports:
                    shared.append((sw, ports))
            for host_name in host_names:
                dst_ip = topo.host_ip(host_name)
                for sw, ports in shared:
                    self._ecmp[sw][dst_ip] = ports
                # At the ToR the next hop is the host-facing port itself.
                self._ecmp[tor][dst_ip] = [
                    port for port, remote in adj[tor] if remote == host_name
                ]

    def _build_for_host(self, host_name: str) -> None:
        """BFS outward from a host; record all shortest next-hops per switch."""
        topo = self.topology
        dst_ip = topo.host_ip(host_name)
        dist: Dict[str, int] = {host_name: 0}
        frontier = deque([host_name])
        while frontier:
            node = frontier.popleft()
            for _, remote in topo.neighbors(node):
                if remote.node not in dist:
                    dist[remote.node] = dist[node] + 1
                    frontier.append(remote.node)
        for sw in topo.switches:
            if sw.name not in dist:
                continue
            ports = [
                port
                for port, remote in topo.neighbors(sw.name)
                if remote.node in dist and dist[remote.node] == dist[sw.name] - 1
            ]
            if ports:
                self._ecmp[sw.name][dst_ip] = sorted(ports)

    # -- overrides ------------------------------------------------------------

    def set_static_route(self, switch: str, dst_ip: str, port: int) -> None:
        """Force traffic for ``dst_ip`` at ``switch`` onto ``port``.

        This models the routing misconfigurations (link failures, port flaps,
        transient loops) that create cyclic buffer dependencies in the paper.
        """
        node = self.topology.node(switch)
        if not node.is_switch:
            raise RoutingError(f"{switch} is not a switch")
        if port not in node.ports:
            raise RoutingError(f"{switch} has no port {port}")
        self._static[(switch, dst_ip)] = port
        self._select_cache.clear()

    def clear_static_route(self, switch: str, dst_ip: str) -> None:
        self._static.pop((switch, dst_ip), None)
        self._select_cache.clear()

    # -- lookups --------------------------------------------------------------

    def ecmp_ports(self, switch: str, dst_ip: str) -> List[int]:
        """The equal-cost egress port set (static override wins)."""
        override = self._static.get((switch, dst_ip))
        if override is not None:
            return [override]
        try:
            return list(self._ecmp[switch][dst_ip])
        except KeyError:
            raise RoutingError(f"no route at {switch} toward {dst_ip}") from None

    def select_port(self, switch: str, dst_ip: str, flow_hash_key: object) -> int:
        """Resolve the ECMP choice for one flow, deterministically."""
        cache_key = (switch, dst_ip, flow_hash_key)
        try:
            cached = self._select_cache.get(cache_key)
        except TypeError:  # unhashable flow key: resolve without caching
            cached = None
            cache_key = None
        if cached is not None:
            self.select_cache_hits += 1
            return cached
        self.select_cache_misses += 1
        ports = self.ecmp_ports(switch, dst_ip)
        if len(ports) == 1:
            port = ports[0]
        else:
            port = ports[_stable_hash(switch, dst_ip, flow_hash_key) % len(ports)]
        if cache_key is not None:
            self._select_cache[cache_key] = port
        return port

    def flow_path(
        self,
        src_host: str,
        dst_ip: str,
        flow_hash_key: object,
        max_hops: int = MAX_PATH_HOPS,
    ) -> List[PortRef]:
        """Egress ports traversed by a flow, source NIC first.

        Returns ``[H.P, SW_a.P_x, SW_b.P_y, ...]`` ending with the ToR port
        facing the destination host.  Raises :class:`RoutingError` if the
        path exceeds ``max_hops`` (a routing loop).
        """
        topo = self.topology
        dst_host = topo.host_of_ip(dst_ip)
        path: List[PortRef] = [topo.host_port(src_host)]
        current = topo.peer_port(path[0]).node
        hops = 0
        while current != dst_host:
            if hops >= max_hops:
                raise RoutingError(
                    f"path {src_host}->{dst_ip} exceeded {max_hops} hops (loop?)"
                )
            port = self.select_port(current, dst_ip, flow_hash_key)
            egress = PortRef(current, port)
            path.append(egress)
            current = topo.peer_port(egress).node
            hops += 1
        return path

    def switch_path(
        self, src_host: str, dst_ip: str, flow_hash_key: object
    ) -> List[str]:
        """Just the switch names along a flow's path, in order."""
        return [ref.node for ref in self.flow_path(src_host, dst_ip, flow_hash_key)[1:]]


def make_ring_cbd_routes(
    routing: RoutingTable,
    ring_switches: Sequence[str],
    dst_ips_per_switch: Dict[str, List[str]],
) -> None:
    """Force clockwise routing around a switch ring to create a CBD.

    ``ring_switches`` lists the ring in clockwise order.  For each switch,
    destinations attached two or more hops away (clockwise) are forced onto
    the clockwise ring port, so that every ring buffer waits on the next —
    the cyclic buffer dependency required for PFC deadlock (§2.1).

    ``dst_ips_per_switch`` maps each ring switch to the host IPs attached
    to it.
    """
    topo = routing.topology
    n = len(ring_switches)
    if n < 3:
        raise RoutingError("a CBD ring needs at least 3 switches")
    clockwise_port: Dict[str, int] = {}
    for i, sw in enumerate(ring_switches):
        nxt = ring_switches[(i + 1) % n]
        port = _port_toward(topo, sw, nxt)
        if port is None:
            raise RoutingError(f"{sw} has no direct link to {nxt}")
        clockwise_port[sw] = port
    for i, sw in enumerate(ring_switches):
        # Route clockwise to every non-local ring switch's hosts.
        for step in range(1, n):
            target = ring_switches[(i + step) % n]
            if target == sw:
                continue
            for ip in dst_ips_per_switch.get(target, []):
                routing.set_static_route(sw, ip, clockwise_port[sw])


def _port_toward(topo: Topology, switch: str, neighbor: str) -> Optional[int]:
    for port, remote in topo.neighbors(switch):
        if remote.node == neighbor:
            return port
    return None
