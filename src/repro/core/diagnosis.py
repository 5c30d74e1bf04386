"""The provenance analysis procedure (Algorithm 2).

Starting from the ports that PFC-paused the victim flow, the diagnoser
DFS-walks the port-level provenance.  Revisiting a port on the current path
means a PFC loop (deadlock); a port with no outgoing port-level edges is an
initial congestion point, where the port-flow edges decide between flow
contention (positive contributors exist) and host PFC injection (none — the
pause provably came from the peer device).  Anomaly classes follow Table 2.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Set, Tuple

from ..sim.packet import FlowKey
from ..topology.graph import PortRef
from .build import AnnotatedGraph
from .graph import EdgeKind
from .report import AnomalyType, Diagnosis, Finding, RootCauseKind

_EPS = 1e-9

# DFS guard for pathological graphs.
MAX_VISITED_PORTS = 4096
# A flow only counts as a contention contributor when other traffic waits
# behind at least this many of its packets on average — tiny positive
# weights are replay noise or incidental micro-queueing (e.g. benign
# traffic sharing a port shortly before a PFC injection), not a root cause.
MIN_CONTENTION_WEIGHT = 2.0
# Keep at most this many culprit flows per finding (weight-sorted).
MAX_CULPRITS = 16
# ... and the contribution must also explain a meaningful share of the
# port's observed queue depth, or transient micro-queueing (e.g. benign
# traffic that shared the port long before a PFC injection) would be
# mistaken for the congestion's root cause.
MIN_CONTENTION_QDEPTH_SHARE = 0.1


class Diagnoser:
    """Runs Algorithm 2 over an annotated provenance graph."""

    # -- public API -----------------------------------------------------------------

    def diagnose(
        self,
        annotated: AnnotatedGraph,
        victim: FlowKey,
        victim_path_ports: Optional[List[PortRef]] = None,
        obs=None,
        now_ns: int = 0,
    ) -> Diagnosis:
        """Diagnose one victim complaint.

        ``victim_path_ports`` (the victim's egress ports hop by hop, known
        from routing) is the fallback entry point when flow-level telemetry
        is unavailable (the port-only ablation): diagnosis then starts from
        the victim-path ports that show PFC-paused packets at port level.

        ``obs``/``now_ns``: every signature Algorithm 2 matches (each
        appended :class:`Finding`) emits a ``signature_match`` trace event
        stamped at the caller's analysis-time clock.
        """
        graph = annotated.graph
        diagnosis = Diagnosis(victim=victim)
        dedup: Set[Tuple] = set()
        # The complaining victim is never its own root cause: exclude it
        # from contention-culprit lists for the duration of this diagnosis.
        self._victim = victim
        self._obs = obs
        self._obs_now = now_ns

        paused_at = sorted(
            graph.ports_pausing_flow(victim), key=lambda pw: -pw[1]
        )
        if not any(w > _EPS for _, w in paused_at) and victim_path_ports:
            paused_at = [
                (port, float(annotated.port_meta[port].paused_num))
                for port in victim_path_ports
                if port in annotated.port_meta
                and annotated.port_meta[port].paused_num > 0
            ]
        visited_budget = [MAX_VISITED_PORTS]
        for port, weight in paused_at:
            if weight <= _EPS:
                continue
            self._check_port_node(
                annotated, port, [], diagnosis, dedup, visited_budget
            )

        if not diagnosis.findings:
            self._normal_contention(annotated, victim, diagnosis, dedup)

        self._attach_spreading_flows(annotated, victim, diagnosis)
        if annotated.missing_switches:
            # Frontier gaps the graph builder marked: the PFC causality
            # provably continues into switches we have no telemetry for.
            diagnosis.missing_switches = sorted(annotated.missing_switches)
        return diagnosis

    # -- Algorithm 2: CheckPortNode ----------------------------------------------------

    def _check_port_node(
        self,
        annotated: AnnotatedGraph,
        port: PortRef,
        path: List[PortRef],
        diagnosis: Diagnosis,
        dedup: Set[Tuple],
        budget: List[int],
    ) -> None:
        if budget[0] <= 0:
            return
        budget[0] -= 1
        if port in path:
            loop = path[path.index(port):]
            self._deadlock_diagnose(annotated, loop, path, diagnosis, dedup, budget)
            return
        successors = annotated.graph.port_successors(port)
        if not successors:
            self._initial_node(annotated, port, path, diagnosis, dedup, in_loop=None)
            return
        for succ in successors:
            self._check_port_node(
                annotated, succ, path + [port], diagnosis, dedup, budget
            )

    # -- Algorithm 2: DeadlockDiagnose -----------------------------------------------

    def _deadlock_diagnose(
        self,
        annotated: AnnotatedGraph,
        loop: List[PortRef],
        path: List[PortRef],
        diagnosis: Diagnosis,
        dedup: Set[Tuple],
        budget: List[int],
    ) -> None:
        graph = annotated.graph
        members = set(loop)
        escape_branches = [
            (p, succ)
            for p in loop
            for succ in graph.port_successors(p)
            if succ not in members
        ]
        if escape_branches:
            # Initiator out of the loop: follow each escape branch to its
            # terminal and classify contention vs injection there.
            for _, succ in escape_branches:
                self._walk_to_terminals(
                    annotated, succ, list(loop), loop, diagnosis, dedup, budget
                )
            return
        # Initiator inside the loop: the initial congestion point is the loop
        # port with the strongest local contention ("multiple outgoing
        # positive edges to a set of flows", §3.5.2).
        best_port = None
        best_culprits: List[Tuple[FlowKey, float]] = []
        best_strength = 0.0
        for p in loop:
            root, culprits, _ = self._analyze_flow_contention(annotated, p)
            if root is not RootCauseKind.FLOW_CONTENTION:
                continue
            strength = sum(w for _, w in culprits)
            if strength > best_strength:
                best_port, best_culprits, best_strength = p, culprits, strength
        if best_port is not None:
            self._add_finding(
                diagnosis,
                dedup,
                Finding(
                    anomaly=AnomalyType.IN_LOOP_DEADLOCK,
                    root_cause=RootCauseKind.FLOW_CONTENTION,
                    initial_port=best_port,
                    culprit_flows=best_culprits,
                    pfc_path=list(path),
                    loop=list(loop),
                ),
            )
        else:
            self._add_finding(
                diagnosis,
                dedup,
                Finding(
                    anomaly=AnomalyType.IN_LOOP_DEADLOCK,
                    root_cause=RootCauseKind.UNDETERMINED,
                    initial_port=loop[0],
                    pfc_path=list(path),
                    loop=list(loop),
                ),
            )

    def _walk_to_terminals(
        self,
        annotated: AnnotatedGraph,
        start: PortRef,
        path: List[PortRef],
        loop: List[PortRef],
        diagnosis: Diagnosis,
        dedup: Set[Tuple],
        budget: List[int],
    ) -> None:
        """DFS from a loop-escape branch to the initial congestion point(s)."""
        graph = annotated.graph
        stack: List[Tuple[PortRef, List[PortRef]]] = [(start, path)]
        seen: Set[PortRef] = set(loop)
        while stack and budget[0] > 0:
            budget[0] -= 1
            node, node_path = stack.pop()
            if node in seen:
                continue
            seen.add(node)
            successors = graph.port_successors(node)
            if not successors:
                self._initial_node(
                    annotated, node, node_path, diagnosis, dedup, in_loop=loop
                )
                continue
            for succ in successors:
                stack.append((succ, node_path + [node]))

    # -- Algorithm 2: initial node + AnalyzeFlowContention ------------------------------

    def _initial_node(
        self,
        annotated: AnnotatedGraph,
        port: PortRef,
        path: List[PortRef],
        diagnosis: Diagnosis,
        dedup: Set[Tuple],
        in_loop: Optional[List[PortRef]],
    ) -> None:
        root, culprits, injector = self._analyze_flow_contention(annotated, port)
        if in_loop is not None:
            if root is RootCauseKind.FLOW_CONTENTION:
                anomaly = AnomalyType.OUT_OF_LOOP_DEADLOCK_CONTENTION
            else:
                anomaly = AnomalyType.OUT_OF_LOOP_DEADLOCK_INJECTION
        elif root is RootCauseKind.FLOW_CONTENTION:
            meta = annotated.port_meta.get(port)
            if (
                meta is not None
                and meta.is_pfc_paused
                and meta.peer_is_host
                and meta.peer is not None
            ):
                # Fuzzer-promoted class: the terminal port carries *both*
                # Table 2 root-cause signals at once — the peer host is
                # provably injecting PAUSE frames (the port is paused with
                # a host on the other end) while converging flows pile up
                # behind the frozen queue.  Contention alone would hide
                # the injecting NIC; the injection is the actionable cause
                # and the contributors are kept as the masking flows.
                anomaly = AnomalyType.CONTENTION_MASKED_STORM
                root = RootCauseKind.HOST_PFC_INJECTION
                injector = meta.peer.node
            else:
                anomaly = AnomalyType.MICRO_BURST_INCAST
        elif root is RootCauseKind.HOST_PFC_INJECTION:
            anomaly = AnomalyType.PFC_STORM
        else:
            anomaly = AnomalyType.UNKNOWN
        self._add_finding(
            diagnosis,
            dedup,
            Finding(
                anomaly=anomaly,
                root_cause=root,
                initial_port=port,
                culprit_flows=culprits,
                injecting_source=injector,
                pfc_path=path + [port],
                loop=list(in_loop) if in_loop else [],
            ),
        )

    def _analyze_flow_contention(
        self, annotated: AnnotatedGraph, port: PortRef
    ) -> Tuple[RootCauseKind, List[Tuple[FlowKey, float]], Optional[str]]:
        """Classify one port: contention contributors vs PFC injection."""
        graph = annotated.graph
        weights = graph.port_flow_weights(port)
        meta = annotated.port_meta.get(port)
        threshold = MIN_CONTENTION_WEIGHT
        if meta is not None:
            # Scale against the contention-relevant (non-paused) queue depth;
            # the blended depth is inflated by PFC buildup at frozen ports.
            basis = meta.avg_unpaused_qdepth_pkts or meta.avg_qdepth_pkts
            threshold = max(threshold, MIN_CONTENTION_QDEPTH_SHARE * basis)
        victim = getattr(self, "_victim", None)
        positives = sorted(
            (
                (f, w)
                for f, w in weights.items()
                if w >= threshold and f != victim
            ),
            key=lambda fw: -fw[1],
        )[:MAX_CULPRITS]
        if positives:
            return RootCauseKind.FLOW_CONTENTION, positives, None
        if meta is not None and meta.is_pfc_paused:
            if meta.peer_is_host:
                # Paused with no local contention and a host on the other
                # end: the pause was injected by that host.
                return RootCauseKind.HOST_PFC_INJECTION, [], meta.peer.node
            # Paused by a downstream *switch* whose telemetry we could not
            # follow (partial deployment / overwritten epochs): inconclusive
            # rather than a false host accusation.
            return RootCauseKind.UNDETERMINED, [], None
        return RootCauseKind.UNDETERMINED, [], None

    # -- fallbacks & decoration -----------------------------------------------------------

    def _normal_contention(
        self,
        annotated: AnnotatedGraph,
        victim: FlowKey,
        diagnosis: Diagnosis,
        dedup: Set[Tuple],
    ) -> None:
        """Victim was never PFC-paused: classic intra-queue contention."""
        graph = annotated.graph
        victim_ports = annotated.flow_ports.get(victim)
        if victim_ports is None:
            # Hand-built graph without the inverted index: scan.
            victim_ports = [
                port for (flow, port) in annotated.flow_port_meta if flow == victim
            ]
        # The root-cause port is where the contention pressing on the victim
        # is strongest (sum of positive contributor weights).
        best: Optional[Tuple[PortRef, List[Tuple[FlowKey, float]], float]] = None
        for port in victim_ports:
            weights = graph.port_flow_weights(port)
            positives = sorted(
                (
                    (f, w)
                    for f, w in weights.items()
                    if w >= MIN_CONTENTION_WEIGHT and f != victim
                ),
                key=lambda fw: -fw[1],
            )
            if not positives:
                continue
            strength = sum(w for _, w in positives)
            if best is None or strength > best[2]:
                best = (port, positives, strength)
        if best is None:
            return
        port, positives, _ = best
        self._add_finding(
            diagnosis,
            dedup,
            Finding(
                anomaly=AnomalyType.NORMAL_CONTENTION,
                root_cause=RootCauseKind.FLOW_CONTENTION,
                initial_port=port,
                culprit_flows=positives[:MAX_CULPRITS],
            ),
        )

    def _attach_spreading_flows(
        self, annotated: AnnotatedGraph, victim: FlowKey, diagnosis: Diagnosis
    ) -> None:
        """Flows paused at two or more hops of a finding's PFC path spread it."""
        graph = annotated.graph
        for finding in diagnosis.findings:
            relevant = set(finding.pfc_path) | set(finding.loop)
            if len(relevant) < 2:
                continue
            # Equivalent to scanning every flow's pausing ports, but walks
            # only the relevant ports' incoming flow-port edges; the final
            # sort makes the result independent of traversal order.
            counts: Dict[FlowKey, int] = {}
            for port in relevant:
                for edge in graph.in_edges(port, EdgeKind.FLOW_PORT):
                    if edge.src != victim and edge.weight > _EPS:
                        counts[edge.src] = counts.get(edge.src, 0) + 1
            finding.spreading_flows = sorted(
                (f for f, c in counts.items() if c >= 2), key=str
            )

    def _add_finding(self, diagnosis: Diagnosis, dedup: Set[Tuple], finding: Finding) -> None:
        key = (
            finding.anomaly,
            finding.initial_port,
            tuple(sorted(str(p) for p in finding.loop)),
        )
        if key in dedup:
            return
        dedup.add(key)
        diagnosis.findings.append(finding)
        obs = getattr(self, "_obs", None)
        if obs is not None:
            obs.on_signature_match(
                diagnosis.victim,
                self._obs_now,
                anomaly=finding.anomaly.value,
                root_cause=finding.root_cause.value,
                port=str(finding.initial_port),
            )
