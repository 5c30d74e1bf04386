"""Algorithm 2 (diagnosis procedure) tests on hand-built graphs."""

import pytest

from repro.core import (
    AnnotatedGraph,
    AnomalyType,
    Diagnoser,
    EdgeKind,
    ProvenanceGraph,
    RootCauseKind,
)
from repro.core.build import FlowPortMeta, PortMeta
from repro.sim import FlowKey
from repro.topology import PortRef


def key(i):
    return FlowKey("10.0.0.1", "10.0.0.2", 1000 + i, 4791)


VICTIM = key(0)


def P(name, port=1):
    return PortRef(name, port)


def annotate(graph, port_meta, flow_meta=None):
    ann = AnnotatedGraph(graph=graph, window_ns=1 << 20)
    ann.port_meta = port_meta
    ann.flow_port_meta = flow_meta or {}
    return ann


def backpressure_graph(contention=True, deep_queue=10.0):
    g = ProvenanceGraph()
    g.add_edge(VICTIM, P("A"), EdgeKind.FLOW_PORT, 6.0)
    g.add_edge(P("A"), P("B"), EdgeKind.PORT_PORT, 10.0)
    g.add_edge(P("B"), P("C"), EdgeKind.PORT_PORT, 20.0)
    meta = {
        P("A"): PortMeta(paused_num=6, avg_qdepth_pkts=deep_queue),
        P("B"): PortMeta(paused_num=8, avg_qdepth_pkts=deep_queue),
        P("C"): PortMeta(paused_num=0, avg_qdepth_pkts=deep_queue,
                         peer=PortRef("HOSTX", 1), peer_is_host=True),
    }
    if contention:
        g.add_edge(P("C"), key(1), EdgeKind.PORT_FLOW, 30.0)
        g.add_edge(P("C"), key(2), EdgeKind.PORT_FLOW, 25.0)
        g.add_edge(P("C"), key(3), EdgeKind.PORT_FLOW, -55.0)
    else:
        meta[P("C")].paused_num = 4  # paused by its host peer: injection
    return annotate(g, meta)


class TestBackpressureAndStorm:
    def test_micro_burst_diagnosed(self):
        ann = backpressure_graph(contention=True)
        diag = Diagnoser().diagnose(ann, VICTIM)
        primary = diag.primary()
        assert primary.anomaly is AnomalyType.MICRO_BURST_INCAST
        assert primary.root_cause is RootCauseKind.FLOW_CONTENTION
        assert primary.initial_port == P("C")
        assert primary.culprit_keys() == [key(1), key(2)]
        assert primary.pfc_path == [P("A"), P("B"), P("C")]

    def test_storm_diagnosed_with_injector(self):
        ann = backpressure_graph(contention=False)
        diag = Diagnoser().diagnose(ann, VICTIM)
        primary = diag.primary()
        assert primary.anomaly is AnomalyType.PFC_STORM
        assert primary.root_cause is RootCauseKind.HOST_PFC_INJECTION
        assert primary.injecting_source == "HOSTX"

    def test_culprits_sorted_by_weight(self):
        ann = backpressure_graph(contention=True)
        primary = Diagnoser().diagnose(ann, VICTIM).primary()
        weights = [w for _, w in primary.culprit_flows]
        assert weights == sorted(weights, reverse=True)

    def test_small_contention_filtered_by_qdepth_share(self):
        """Micro-queueing noise below 10% of the port depth is not a root
        cause; with nothing else the port must be read as injection."""
        ann = backpressure_graph(contention=True, deep_queue=1000.0)
        ann.port_meta[P("C")].paused_num = 4
        diag = Diagnoser().diagnose(ann, VICTIM)
        assert diag.primary().root_cause is RootCauseKind.HOST_PFC_INJECTION

    def test_victim_not_paused_no_pfc_findings(self):
        g = ProvenanceGraph()
        g.add_edge(P("Q"), key(1), EdgeKind.PORT_FLOW, 12.0)
        g.add_edge(P("Q"), VICTIM, EdgeKind.PORT_FLOW, -12.0)
        ann = annotate(
            g,
            {P("Q"): PortMeta(avg_qdepth_pkts=20.0)},
            {(VICTIM, P("Q")): FlowPortMeta(pkt_count=10),
             (key(1), P("Q")): FlowPortMeta(pkt_count=100)},
        )
        diag = Diagnoser().diagnose(ann, VICTIM)
        primary = diag.primary()
        assert primary.anomaly is AnomalyType.NORMAL_CONTENTION
        assert primary.culprit_keys() == [key(1)]

    def test_empty_graph_unknown(self):
        ann = annotate(ProvenanceGraph(), {})
        diag = Diagnoser().diagnose(ann, VICTIM)
        assert diag.primary().anomaly is AnomalyType.UNKNOWN
        assert not diag.findings


class TestDeadlocks:
    def loop_ann(self, escape=None):
        g = ProvenanceGraph()
        ports = [P("SW1"), P("SW2"), P("SW3"), P("SW4")]
        for i, p in enumerate(ports):
            g.add_edge(p, ports[(i + 1) % 4], EdgeKind.PORT_PORT, 10.0)
        g.add_edge(VICTIM, ports[0], EdgeKind.FLOW_PORT, 4.0)
        meta = {p: PortMeta(paused_num=5, avg_qdepth_pkts=30.0) for p in ports}
        if escape is None:
            g.add_edge(ports[1], key(1), EdgeKind.PORT_FLOW, 40.0)
            g.add_edge(ports[1], key(2), EdgeKind.PORT_FLOW, 35.0)
        else:
            term = P("SW2", 9)
            g.add_edge(ports[1], term, EdgeKind.PORT_PORT, 3.0)
            meta[term] = PortMeta(
                paused_num=2 if escape == "injection" else 0,
                avg_qdepth_pkts=30.0,
                peer=PortRef("H2_1", 1),
                peer_is_host=True,
            )
            if escape == "contention":
                g.add_edge(term, key(3), EdgeKind.PORT_FLOW, 22.0)
        return annotate(g, meta), ports

    def test_in_loop_deadlock(self):
        ann, ports = self.loop_ann()
        primary = Diagnoser().diagnose(ann, VICTIM).primary()
        assert primary.anomaly is AnomalyType.IN_LOOP_DEADLOCK
        assert primary.initial_port == ports[1]
        assert set(primary.culprit_keys()) == {key(1), key(2)}
        assert set(primary.loop) == set(ports)

    def test_out_of_loop_injection(self):
        ann, _ = self.loop_ann(escape="injection")
        primary = Diagnoser().diagnose(ann, VICTIM).primary()
        assert primary.anomaly is AnomalyType.OUT_OF_LOOP_DEADLOCK_INJECTION
        assert primary.injecting_source == "H2_1"
        assert primary.initial_port == P("SW2", 9)

    def test_out_of_loop_contention(self):
        ann, _ = self.loop_ann(escape="contention")
        primary = Diagnoser().diagnose(ann, VICTIM).primary()
        assert primary.anomaly is AnomalyType.OUT_OF_LOOP_DEADLOCK_CONTENTION
        assert primary.culprit_keys() == [key(3)]

    def test_in_loop_without_contention_undetermined(self):
        g = ProvenanceGraph()
        ports = [P("SW1"), P("SW2"), P("SW3")]
        for i, p in enumerate(ports):
            g.add_edge(p, ports[(i + 1) % 3], EdgeKind.PORT_PORT, 10.0)
        g.add_edge(VICTIM, ports[0], EdgeKind.FLOW_PORT, 4.0)
        ann = annotate(g, {p: PortMeta(paused_num=5) for p in ports})
        primary = Diagnoser().diagnose(ann, VICTIM).primary()
        assert primary.anomaly is AnomalyType.IN_LOOP_DEADLOCK
        assert primary.root_cause is RootCauseKind.UNDETERMINED

    def test_deadlock_outranks_contention_in_primary(self):
        ann, ports = self.loop_ann()
        # Add a separate normal-contention branch: deadlock must win.
        g = ann.graph
        g.add_edge(VICTIM, P("X"), EdgeKind.FLOW_PORT, 1.0)
        ann.port_meta[P("X")] = PortMeta(paused_num=1, avg_qdepth_pkts=5.0,
                                         peer=PortRef("HX", 1), peer_is_host=True)
        diag = Diagnoser().diagnose(ann, VICTIM)
        assert diag.primary().anomaly.is_deadlock


class TestPortOnlyFallback:
    def test_victim_path_ports_entry_point(self):
        """Without flow telemetry the diagnosis starts from port-level
        paused counters on the victim's known path (port-only ablation)."""
        g = ProvenanceGraph()
        g.add_edge(P("A"), P("B"), EdgeKind.PORT_PORT, 10.0)
        meta = {
            P("A"): PortMeta(paused_num=5, avg_qdepth_pkts=10.0),
            P("B"): PortMeta(paused_num=0, avg_qdepth_pkts=10.0,
                             peer=PortRef("H", 1), peer_is_host=True),
        }
        g.add_edge(P("B"), key(1), EdgeKind.PORT_FLOW, 15.0)
        ann = annotate(g, meta)
        diag = Diagnoser().diagnose(ann, VICTIM, victim_path_ports=[P("A")])
        assert diag.primary().anomaly is AnomalyType.MICRO_BURST_INCAST

    def test_no_fallback_without_path(self):
        g = ProvenanceGraph()
        g.add_edge(P("A"), P("B"), EdgeKind.PORT_PORT, 10.0)
        ann = annotate(g, {P("A"): PortMeta(paused_num=5), P("B"): PortMeta()})
        diag = Diagnoser().diagnose(ann, VICTIM)
        assert not diag.findings


class TestSpreadingFlows:
    def test_flow_paused_on_two_hops_flagged(self):
        ann = backpressure_graph(contention=True)
        g = ann.graph
        spreader = key(7)
        g.add_edge(spreader, P("A"), EdgeKind.FLOW_PORT, 3.0)
        g.add_edge(spreader, P("B"), EdgeKind.FLOW_PORT, 5.0)
        diag = Diagnoser().diagnose(ann, VICTIM)
        assert spreader in diag.primary().spreading_flows

    def test_victim_itself_not_listed_as_spreader(self):
        ann = backpressure_graph(contention=True)
        ann.graph.add_edge(VICTIM, P("B"), EdgeKind.FLOW_PORT, 2.0)
        diag = Diagnoser().diagnose(ann, VICTIM)
        assert VICTIM not in diag.primary().spreading_flows


class TestReportTypes:
    def test_describe_smoke(self):
        ann = backpressure_graph(contention=True)
        diag = Diagnoser().diagnose(ann, VICTIM)
        text = diag.describe()
        assert "pfc-backpressure" in text
        assert str(P("C")) in text

    def test_max_culprits_respected(self, monkeypatch):
        monkeypatch.setattr("repro.core.diagnosis.MAX_CULPRITS", 5)
        g = ProvenanceGraph()
        g.add_edge(VICTIM, P("A"), EdgeKind.FLOW_PORT, 6.0)
        meta = {P("A"): PortMeta(paused_num=0, avg_qdepth_pkts=1.0)}
        for i in range(1, 30):
            g.add_edge(P("A"), key(i), EdgeKind.PORT_FLOW, float(i))
        ann = annotate(g, meta)
        diag = Diagnoser().diagnose(ann, VICTIM)
        assert len(diag.primary().culprit_flows) <= 5
