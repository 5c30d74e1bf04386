"""Hawkeye's core contribution: PFC provenance construction and diagnosis."""

from .. import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(globals(), {
    "build": ("AnnotatedGraph", "FlowPortMeta", "PortMeta", "build_provenance"),
    "diagnosis": ("Diagnoser",),
    "graph": ("Edge", "EdgeKind", "ProvenanceGraph"),
    "replay": ("contribution", "replay_queue"),
    "report": ("AnomalyType", "Diagnosis", "Finding", "RootCauseKind"),
    "signatures": (
        "BURST_TRAFFIC_SHARE", "burst_flow", "find_port_loops",
        "has_flow_contention", "match_contention_masked_storm",
        "match_in_loop_deadlock", "match_micro_burst_incast",
        "match_normal_contention", "match_out_of_loop_deadlock",
        "match_pfc_storm", "positive_contributors", "terminal_ports_reachable",
    ),
})
