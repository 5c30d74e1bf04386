"""Anomaly signatures over the provenance graph (Table 2).

Each predicate checks one row of Table 2 against an annotated provenance
graph.  The diagnoser never calls them: Algorithm 2 walks the graph once
instead of evaluating every signature independently.  The fuzzer's
coverage fingerprint (:mod:`repro.fuzz.coverage`) and the tests do.
"""

from __future__ import annotations

from typing import List, Optional, Set

from ..sim.packet import FlowKey
from ..topology.graph import PortRef
from .build import AnnotatedGraph
from .graph import EdgeKind, ProvenanceGraph

_EPS = 1e-9

# A contributing flow is a "burst flow" when it carries at least this share
# of the initial port's traffic over the telemetry window.  (The paper
# checks contributing flows' paths and throughput; with uniform replay the
# traffic share is the observable burst indicator.)
BURST_TRAFFIC_SHARE = 0.02


def positive_contributors(graph: ProvenanceGraph, port: PortRef) -> List[FlowKey]:
    """Flows with positive port-flow weight at ``port`` (contention culprits)."""
    return [
        flow
        for flow, weight in graph.port_flow_weights(port).items()
        if weight > _EPS
    ]


def has_flow_contention(graph: ProvenanceGraph, port: PortRef) -> bool:
    return bool(positive_contributors(graph, port))


def burst_flow(annotated: AnnotatedGraph, flow: FlowKey, port: PortRef) -> bool:
    """Is ``flow`` bursty at ``port``?  (traffic-share approximation)"""
    meta = annotated.flow_port_meta.get((flow, port))
    if meta is None or meta.byte_count <= 0:
        return False
    total = annotated.port_bytes.get(port)
    if total is None:
        # Graph predates the build-time byte column (hand-built in tests):
        # fall back to the O(flows) scan.
        total = sum(
            m.byte_count
            for (f, p), m in annotated.flow_port_meta.items()
            if p == port
        )
    if total <= 0:
        return False
    return meta.byte_count / total >= BURST_TRAFFIC_SHARE


def find_port_loops(graph: ProvenanceGraph) -> List[List[PortRef]]:
    """All distinct simple cycles in the port-level subgraph (DFS)."""
    loops: List[List[PortRef]] = []
    seen_signatures: Set[frozenset] = set()
    for start in graph.ports:
        stack: List[PortRef] = []
        on_stack: Set[PortRef] = set()
        visited: Set[PortRef] = set()

        def dfs(node: PortRef) -> None:
            stack.append(node)
            on_stack.add(node)
            visited.add(node)
            for succ in graph.port_successors(node):
                if succ in on_stack:
                    loop = stack[stack.index(succ):]
                    sig = frozenset(loop)
                    if sig not in seen_signatures:
                        seen_signatures.add(sig)
                        loops.append(list(loop))
                elif succ not in visited:
                    dfs(succ)
            stack.pop()
            on_stack.remove(node)

        if start not in visited:
            dfs(start)
    return loops


def terminal_ports_reachable(graph: ProvenanceGraph, start: PortRef) -> List[PortRef]:
    """Ports with port-level out-degree 0 reachable from ``start``."""
    terminals: List[PortRef] = []
    visited: Set[PortRef] = set()
    frontier = [start]
    while frontier:
        node = frontier.pop()
        if node in visited:
            continue
        visited.add(node)
        succs = graph.port_successors(node)
        if not succs:
            terminals.append(node)
        frontier.extend(succs)
    return terminals


# -- Table 2 signature predicates --------------------------------------------------


def match_micro_burst_incast(annotated: AnnotatedGraph) -> Optional[PortRef]:
    """A PFC path ending at a port whose contention contributors are bursty."""
    graph = annotated.graph
    for port in graph.ports:
        if graph.port_out_degree(port) != 0:
            continue
        if not graph.in_edges(port, EdgeKind.PORT_PORT) and not graph.in_edges(
            port, EdgeKind.FLOW_PORT
        ):
            continue  # not on any PFC path
        culprits = positive_contributors(graph, port)
        if culprits and any(burst_flow(annotated, f, port) for f in culprits):
            return port
    return None


def match_pfc_storm(annotated: AnnotatedGraph) -> Optional[PortRef]:
    """A PFC path ending at a paused port with no flow contention."""
    graph = annotated.graph
    for port in graph.ports:
        if graph.port_out_degree(port) != 0:
            continue
        meta = annotated.port_meta.get(port)
        if meta is None or meta.paused_num <= 0:
            continue
        if not has_flow_contention(graph, port):
            return port
    return None


def match_in_loop_deadlock(annotated: AnnotatedGraph) -> Optional[List[PortRef]]:
    """A port-level loop whose every member stays in the loop, with
    contention at some loop port."""
    graph = annotated.graph
    for loop in find_port_loops(graph):
        members = set(loop)
        closed = all(
            graph.port_out_degree(p) == 1
            and all(s in members for s in graph.port_successors(p))
            for p in loop
        )
        if closed and any(has_flow_contention(graph, p) for p in loop):
            return loop
    return None


def match_out_of_loop_deadlock(
    annotated: AnnotatedGraph,
) -> Optional[tuple]:
    """A loop with an escape branch reaching a terminal port.

    Returns ``(loop, terminal, is_contention)`` or ``None``.
    """
    graph = annotated.graph
    for loop in find_port_loops(graph):
        members = set(loop)
        for p in loop:
            if graph.port_out_degree(p) <= 1:
                continue
            for succ in graph.port_successors(p):
                if succ in members:
                    continue
                for terminal in terminal_ports_reachable(graph, succ):
                    contention = has_flow_contention(graph, terminal)
                    return loop, terminal, contention
    return None


def match_contention_masked_storm(annotated: AnnotatedGraph) -> Optional[PortRef]:
    """A PFC path ending at a *paused* host-facing port that also shows
    flow contention.

    Fuzzer-promoted signature (not in the paper's Table 2): host PFC
    injection and converging traffic at the same port.  Table 2 treats
    "positive contributors" and "paused with no contention" as exclusive
    rows, so this combination used to be reported as plain flow
    contention — naming the masking flows and never the injecting host.
    """
    graph = annotated.graph
    for port in graph.ports:
        if graph.port_out_degree(port) != 0:
            continue
        meta = annotated.port_meta.get(port)
        if meta is None or not meta.is_pfc_paused or not meta.peer_is_host:
            continue
        if has_flow_contention(graph, port):
            return port
    return None


def match_normal_contention(annotated: AnnotatedGraph) -> Optional[PortRef]:
    """No port-level edges at all, but some port shows contention."""
    graph = annotated.graph
    if graph.has_port_level_edges():
        return None
    for port in graph.ports:
        if has_flow_contention(graph, port):
            return port
    return None
