"""Span-tree assembly, rendering and invariant checking.

Works on the plain record dicts ``Tracer.records()`` returns (one per
line of a ``--jsonl`` file), so the same code serves the ``repro trace``
CLI renderer, the trace-invariant test suite, and anyone replaying a
JSONL trace file offline.
"""

from __future__ import annotations

from typing import Any, Dict, Iterable, List, Optional, Tuple

# The causal chain a completed diagnosis must show, in order: the trigger
# that started it, the polling round it launched, the telemetry it
# collected, the graph it built and the verdict it reached.
TRIGGER_EVENTS = ("rtt_trigger", "stall_trigger")
REPORT_EVENTS = ("report_delivered",)


class SpanNode:
    """One span plus its child spans and attached events, in record order."""

    __slots__ = ("record", "children", "events")

    def __init__(self, record: Dict[str, Any]) -> None:
        self.record = record
        self.children: List["SpanNode"] = []
        self.events: List[Dict[str, Any]] = []

    @property
    def kind(self) -> str:
        return self.record["kind"]

    @property
    def name(self) -> str:
        return self.record["name"]

    @property
    def attrs(self) -> Dict[str, Any]:
        return self.record.get("attrs") or {}

    def walk(self) -> Iterable["SpanNode"]:
        yield self
        for child in self.children:
            yield from child.walk()

    def find(self, kind: str) -> List["SpanNode"]:
        return [node for node in self.walk() if node.kind == kind]

    def all_events(self) -> List[Dict[str, Any]]:
        out: List[Dict[str, Any]] = []
        for node in self.walk():
            out.extend(node.events)
        return out


def build_tree(
    records: Iterable[Dict[str, Any]],
) -> Tuple[List[SpanNode], List[str]]:
    """Assemble roots from records; returns ``(roots, orphan errors)``.

    An *orphan* is a span whose ``parent`` id, or an event whose ``span``
    id, names a span that never appeared — the trace-invariant tests
    require the error list to be empty for every run.
    """
    spans: Dict[int, SpanNode] = {}
    ordered: List[Dict[str, Any]] = sorted(records, key=lambda r: r["id"])
    errors: List[str] = []
    for record in ordered:
        if record["type"] == "span":
            spans[record["id"]] = SpanNode(record)
    roots: List[SpanNode] = []
    for record in ordered:
        if record["type"] == "span":
            node = spans[record["id"]]
            parent_id = record.get("parent")
            if parent_id is None:
                roots.append(node)
            elif parent_id in spans:
                spans[parent_id].children.append(node)
            else:
                errors.append(
                    f"orphan span {record['id']} ({record['kind']}): "
                    f"parent {parent_id} not in trace"
                )
                roots.append(node)
        else:
            span_id = record.get("span")
            if span_id is None:
                errors.append(
                    f"orphan event {record['id']} ({record['kind']}): no span"
                )
            elif span_id in spans:
                spans[span_id].events.append(record)
            else:
                errors.append(
                    f"orphan event {record['id']} ({record['kind']}): "
                    f"span {span_id} not in trace"
                )
    return roots, errors


def validate_records(records: Iterable[Dict[str, Any]]) -> List[str]:
    """Structural invariants every trace must satisfy.

    - no orphan spans or events (parent links resolve);
    - every span is closed with ``end_ns >= start_ns``;
    - record ids are unique and events never precede their span's start.
    """
    records = list(records)
    _, errors = build_tree(records)
    seen_ids = set()
    spans: Dict[int, Dict[str, Any]] = {}
    for record in records:
        if record["id"] in seen_ids:
            errors.append(f"duplicate record id {record['id']}")
        seen_ids.add(record["id"])
        if record["type"] == "span":
            spans[record["id"]] = record
            if record["end_ns"] is None:
                errors.append(f"span {record['id']} ({record['kind']}) never ended")
            elif record["end_ns"] < record["start_ns"]:
                errors.append(f"span {record['id']} ends before it starts")
    for record in records:
        if record["type"] != "event":
            continue
        span = spans.get(record.get("span"))
        if span is not None and record["time_ns"] < span["start_ns"]:
            errors.append(
                f"event {record['id']} ({record['kind']}) at {record['time_ns']} "
                f"precedes its span's start {span['start_ns']}"
            )
    return errors


def check_causal_chains(records: Iterable[Dict[str, Any]]) -> Dict[str, List[str]]:
    """Per-diagnosis completeness: what each victim's chain is missing.

    Returns ``{victim: [missing links]}`` — an empty list means a complete
    chain: trigger → polling round → CPU mirror → collection (an
    ``epoch_read`` span, or an ``epoch_shared`` event when collector dedup
    rode a concurrent victim's read) → report delivery → graph build →
    verdict.  A span flagged ``unresolved`` (the victim triggered but the
    run ended before the analyzer produced a verdict — e.g. a culprit flow
    whose own RTT also spiked) is reported as ``["unresolved"]`` and not
    held to the rest of the contract; the degradation rule is that chains
    may be *flagged*, never silently absent.
    """
    roots, _ = build_tree(records)
    out: Dict[str, List[str]] = {}
    for root in roots:
        for diag in root.find("diagnosis"):
            victim = diag.attrs.get("victim", diag.name)
            if diag.attrs.get("unresolved"):
                out[victim] = ["unresolved"]
                continue
            missing: List[str] = []
            events = diag.all_events()
            kinds = {e["kind"] for e in events}
            shared = "epoch_shared" in kinds
            if not kinds.intersection(TRIGGER_EVENTS):
                missing.append("trigger")
            if not diag.find("polling_round"):
                missing.append("polling_round")
            if "polling_mirror" not in kinds:
                missing.append("polling_mirror")
            if not diag.find("epoch_read") and not shared:
                missing.append("epoch_read")
            if not kinds.intersection(REPORT_EVENTS) and not shared:
                missing.append("report_delivered")
            if not diag.find("graph_build"):
                missing.append("graph_build")
            if "verdict" not in kinds:
                missing.append("verdict")
            out[victim] = missing
    return out


# ---------------------------------------------------------------------------
# Rendering (the ``repro trace`` CLI)
# ---------------------------------------------------------------------------

_SKIP_ATTRS = {"victim", "switch"}  # already part of the label


def _fmt_time(ns: Optional[int]) -> str:
    return "?" if ns is None else f"{ns / 1e6:.3f}ms"


def _fmt_attrs(attrs: Dict[str, Any]) -> str:
    parts = []
    for key in sorted(attrs):
        if key in _SKIP_ATTRS:
            continue
        value = attrs[key]
        if isinstance(value, float):
            value = f"{value:.3g}"
        elif isinstance(value, list):
            value = ",".join(str(v) for v in value)
        parts.append(f"{key}={value}")
    return f" [{' '.join(parts)}]" if parts else ""


def _span_label(node: SpanNode) -> str:
    record = node.record
    label = (
        f"{node.kind} {node.name} "
        f"({_fmt_time(record['start_ns'])} .. {_fmt_time(record['end_ns'])})"
    )
    return label + _fmt_attrs(node.attrs)


def _event_label(event: Dict[str, Any]) -> str:
    attrs = event.get("attrs") or {}
    where = f" @ {attrs['switch']}" if "switch" in attrs else ""
    return (
        f"{event['kind']}{where} t={_fmt_time(event['time_ns'])}"
        + _fmt_attrs(attrs)
    )


def render_tree(roots: List[SpanNode]) -> str:
    """Pretty-print span trees with box-drawing connectors."""
    lines: List[str] = []

    def emit(node: SpanNode, prefix: str, is_last: bool, is_root: bool) -> None:
        if is_root:
            lines.append(_span_label(node))
            child_prefix = ""
        else:
            connector = "`- " if is_last else "|- "
            lines.append(prefix + connector + _span_label(node))
            child_prefix = prefix + ("   " if is_last else "|  ")
        # Interleave events and child spans in time order (ties: record id).
        items: List[Tuple[Tuple[int, int], Any]] = [
            ((e["time_ns"], e["id"]), e) for e in node.events
        ]
        items.extend(
            ((c.record["start_ns"], c.record["id"]), c) for c in node.children
        )
        items.sort(key=lambda pair: pair[0])
        for i, (_, item) in enumerate(items):
            last = i == len(items) - 1
            if isinstance(item, SpanNode):
                emit(item, child_prefix, last, False)
            else:
                connector = "`- " if last else "|- "
                lines.append(child_prefix + connector + _event_label(item))

    for i, root in enumerate(roots):
        if i:
            lines.append("")
        emit(root, "", True, True)
    return "\n".join(lines)
