"""Coverage feedback for the scenario fuzzer.

The fuzzer has no ground truth for what a mutated scenario *should* do,
so novelty is defined over what the existing planes observed:

- the diagnosis verdict and its confidence (signature-miss and
  low-confidence outcomes are first-class coverage points);
- which Table-2 signature predicates matched the provenance graph;
- the alert-category combination the fabric monitor raised;
- the canonical *shape* of the provenance graph — per-port structural
  tuples plus loop lengths, hashed on content only (no names, no ids).

A :class:`FuzzObservation` collects those signals; its
:func:`fingerprint` is the retention key of the corpus and the invariant
the minimizer must preserve.  :func:`interest_of` labels observations
that fall outside the paper's expectations — those are the fuzzer's
actual findings.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import asdict, dataclass
from typing import Optional, Tuple

from ..core.build import AnnotatedGraph
from ..core.graph import EdgeKind
from ..core.report import AnomalyType
from ..core.signatures import (
    find_port_loops,
    has_flow_contention,
    match_contention_masked_storm,
    match_in_loop_deadlock,
    match_micro_burst_incast,
    match_normal_contention,
    match_out_of_loop_deadlock,
    match_pfc_storm,
)
from ..monitor.timeline import ANOMALY_ALERT_CATEGORIES

NO_VERDICT = "no-verdict"

# The five anomaly classes of the paper's Table 2 (plus benign contention).
PAPER_CLASSES = frozenset({
    AnomalyType.MICRO_BURST_INCAST.value,
    AnomalyType.PFC_STORM.value,
    AnomalyType.IN_LOOP_DEADLOCK.value,
    AnomalyType.OUT_OF_LOOP_DEADLOCK_CONTENTION.value,
    AnomalyType.OUT_OF_LOOP_DEADLOCK_INJECTION.value,
    AnomalyType.NORMAL_CONTENTION.value,
})

KNOWN_ALERT_COMBOS = frozenset(
    frozenset(categories) for categories in ANOMALY_ALERT_CATEGORIES.values()
) | {frozenset()}

SIGNATURE_PREDICATES = {
    "micro-burst-incast": match_micro_burst_incast,
    "pfc-storm": match_pfc_storm,
    "in-loop-deadlock": match_in_loop_deadlock,
    "out-of-loop-deadlock": match_out_of_loop_deadlock,
    "contention-masked-storm": match_contention_masked_storm,
    "normal-contention": match_normal_contention,
}


@dataclass(frozen=True)
class FuzzObservation:
    """What the pipeline saw for one evaluated genome (picklable)."""

    verdict: str                      # AnomalyType.value or NO_VERDICT
    confidence: str                   # "full" when no diagnosis degraded it
    signatures: Tuple[str, ...]       # matching Table-2 predicate names
    alert_categories: Tuple[str, ...]
    graph_shape: str                  # sha256 of the canonical shape
    triggered: bool                   # did any victim complain?
    paused_ports: int                 # pfc-paused ports in the provenance

    def fingerprint(self) -> str:
        """The stable coverage identity of this observation."""
        blob = json.dumps(asdict(self), sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(blob.encode()).hexdigest()


def graph_shape_hash(annotated: Optional[AnnotatedGraph]) -> str:
    """A canonical fingerprint of the provenance graph's *shape*.

    Content-and-structure only: per-port tuples of (port-level out/in
    degree, paused, host peer, contention), sorted; loop lengths, sorted;
    and the flow-edge count bucketed by bit length so workload scale
    changes shape only in magnitude steps.  Names never enter, so isomorphic graphs on
    differently-labelled fabrics collide — which is exactly what corpus
    dedup wants.
    """
    if annotated is None:
        return "absent"
    graph = annotated.graph
    ports = []
    flow_edges = 0
    for port in graph.ports:
        meta = annotated.port_meta.get(port)
        in_pp = len(graph.in_edges(port, EdgeKind.PORT_PORT))
        in_fp = len(graph.in_edges(port, EdgeKind.FLOW_PORT))
        flow_edges += in_fp
        ports.append((
            graph.port_out_degree(port),
            in_pp,
            bool(meta is not None and meta.is_pfc_paused),
            bool(meta is not None and meta.peer_is_host),
            has_flow_contention(graph, port),
        ))
    shape = {
        "ports": sorted(ports),
        "loops": sorted(len(loop) for loop in find_port_loops(graph)),
        "flow_edges_bits": flow_edges.bit_length(),
    }
    blob = json.dumps(shape, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


def observe(result) -> FuzzObservation:
    """Reduce a :class:`~repro.experiments.runner.RunResult` to coverage."""
    diagnosis = result.diagnosis()
    outcome = result.primary_outcome()
    annotated = outcome.annotated if outcome is not None else None

    if diagnosis is None:
        verdict, confidence = NO_VERDICT, "none"
    else:
        verdict = diagnosis.primary().anomaly.value
        confidence = diagnosis.confidence

    signatures: Tuple[str, ...] = ()
    paused = 0
    if annotated is not None:
        signatures = tuple(sorted(
            name
            for name, predicate in SIGNATURE_PREDICATES.items()
            if predicate(annotated)
        ))
        paused = sum(
            1 for meta in annotated.port_meta.values() if meta.is_pfc_paused
        )

    categories: Tuple[str, ...] = ()
    if result.monitor is not None:
        categories = tuple(sorted(result.monitor.engine.alerts_by_category()))

    return FuzzObservation(
        verdict=verdict,
        confidence=confidence,
        signatures=signatures,
        alert_categories=categories,
        graph_shape=graph_shape_hash(annotated),
        triggered=outcome is not None,
        paused_ports=paused,
    )


def interest_of(obs: FuzzObservation) -> Tuple[str, ...]:
    """Why this observation is a finding (empty tuple: routine coverage).

    - ``beyond-paper-class``: the verdict names an anomaly outside the
      paper's five classes (how ``contention-masked-pfc-storm`` was found);
    - ``unknown-verdict``: a victim complained but the diagnoser could not
      classify the provenance;
    - ``signature-miss``: a diagnosis landed yet no Table-2 predicate
      matches the graph it used;
    - ``silent-pause``: PFC activity (paused provenance ports or fabric
      alerts) with no victim complaint at all — anomalies the detection
      threshold sleeps through;
    - ``novel-alert-combo``: the monitor raised a category combination no
      known anomaly class is expected to produce.
    """
    kinds = []
    if obs.triggered and obs.verdict not in PAPER_CLASSES:
        kinds.append("beyond-paper-class")
    if obs.triggered and obs.verdict == AnomalyType.UNKNOWN.value:
        kinds.append("unknown-verdict")
    if obs.triggered and not obs.signatures:
        kinds.append("signature-miss")
    if not obs.triggered and (obs.paused_ports or obs.alert_categories):
        kinds.append("silent-pause")
    if (
        obs.alert_categories
        and frozenset(obs.alert_categories) not in KNOWN_ALERT_COMBOS
    ):
        kinds.append("novel-alert-combo")
    return tuple(kinds)
