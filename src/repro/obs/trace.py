"""Structured tracing: typed span/event records over swappable sinks.

The :class:`Tracer` is the pipeline's flight recorder.  Every record is
timestamped in **simulated** nanoseconds (never wall clock), carries a
monotonically increasing record id and an explicit parent link, and is
therefore a pure function of the run it observed: identical (seed,
scenario) runs emit byte-identical record streams, which the determinism
suite pins by comparing JSONL sink output bytes.

Two record types exist:

- a **span** covers an interval ``[start_ns, end_ns]`` of the pipeline
  (scenario, per-victim diagnosis, polling round, epoch read, graph
  build, port-pause episode).  Spans nest through ``parent``;
- an **event** marks an instant (RTT trigger, polling mirror/forward,
  report delivery, signature match, verdict) inside a span.

Sink contract (see DESIGN.md "Observability"): a sink's ``emit`` receives
each finished record exactly once, in emission order — events when they
fire, spans when they *end* — as a plain JSON-serializable dict.  Sinks
must not mutate records.  The tracer additionally retains every span and
event on itself (``tracer.spans`` / ``tracer.events``), so in-process
consumers (the span-tree renderer, the invariant tests) read
:meth:`Tracer.records` and never depend on a sink.

Tracing off is no tracer at all: every instrumented call site holds an
optional :class:`~repro.obs.pipeline.PipelineObs` and checks ``obs is
None``, so a run without tracing builds nothing here.
"""

from __future__ import annotations

import io
import json
from typing import Any, Dict, List, Optional, Union


class Sink:
    """Where finished trace records go.  Base class doubles as the no-op."""

    def emit(self, record: Dict[str, Any]) -> None:  # pragma: no cover - interface
        pass

    def close(self) -> None:
        pass


class NullSink(Sink):
    """Discards every record (the leave-it-on default)."""


class JsonlSink(Sink):
    """Streams records as JSON lines (sorted keys, compact separators).

    With deterministic inputs the output file is byte-identical across
    runs — the determinism differential test compares raw bytes.
    """

    def __init__(self, target: Union[str, io.TextIOBase]) -> None:
        if isinstance(target, str):
            self._fh: Any = open(target, "w")
            self._owns = True
        else:
            self._fh = target
            self._owns = False
        self.emitted = 0

    def emit(self, record: Dict[str, Any]) -> None:
        self._fh.write(
            json.dumps(record, sort_keys=True, separators=(",", ":")) + "\n"
        )
        self.emitted += 1

    def close(self) -> None:
        self._fh.flush()
        if self._owns:
            self._fh.close()


class ListSink(Sink):
    """Unbounded in-memory sink (tests and the CLI tree renderer)."""

    def __init__(self) -> None:
        self.records: List[Dict[str, Any]] = []

    def emit(self, record: Dict[str, Any]) -> None:
        self.records.append(record)


class Span:
    """One interval of pipeline work.  Mutable until ended."""

    __slots__ = ("span_id", "parent_id", "kind", "name", "start_ns", "end_ns", "attrs")

    def __init__(
        self,
        span_id: int,
        parent_id: Optional[int],
        kind: str,
        name: str,
        start_ns: int,
        attrs: Dict[str, Any],
    ) -> None:
        self.span_id = span_id
        self.parent_id = parent_id
        self.kind = kind
        self.name = name
        self.start_ns = start_ns
        self.end_ns: Optional[int] = None
        self.attrs = attrs

    @property
    def open(self) -> bool:
        return self.end_ns is None

    def to_record(self) -> Dict[str, Any]:
        return {
            "type": "span",
            "id": self.span_id,
            "parent": self.parent_id,
            "kind": self.kind,
            "name": self.name,
            "start_ns": self.start_ns,
            "end_ns": self.end_ns,
            "attrs": self.attrs,
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "open" if self.open else f"..{self.end_ns}"
        return f"<span {self.span_id} {self.kind}:{self.name} {self.start_ns}{state}>"


class Event:
    """One instant of pipeline work, attached to a span."""

    __slots__ = ("event_id", "span_id", "kind", "name", "time_ns", "attrs")

    def __init__(
        self,
        event_id: int,
        span_id: Optional[int],
        kind: str,
        name: str,
        time_ns: int,
        attrs: Dict[str, Any],
    ) -> None:
        self.event_id = event_id
        self.span_id = span_id
        self.kind = kind
        self.name = name
        self.time_ns = time_ns
        self.attrs = attrs

    def to_record(self) -> Dict[str, Any]:
        return {
            "type": "event",
            "id": self.event_id,
            "span": self.span_id,
            "kind": self.kind,
            "name": self.name,
            "time_ns": self.time_ns,
            "attrs": self.attrs,
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<event {self.event_id} {self.kind}:{self.name} t={self.time_ns}>"


class Tracer:
    """Emits spans and events; retains them and forwards finished records.

    Record ids are a single shared sequence over spans and events, so the
    id order is the global emission order — the invariant tests use it to
    check causal ordering without trusting timestamps alone.  A traced run
    is always one process (a sharded request with tracing on runs serially),
    so two runs of one spec compare by their raw :meth:`records`.
    """

    def __init__(self, sink: Optional[Sink] = None) -> None:
        self.sink = sink if sink is not None else NullSink()
        self.spans: List[Span] = []
        self.events: List[Event] = []
        self._next_id = 1
        self._open: Dict[int, Span] = {}
        self.finished = False

    # -- span lifecycle -------------------------------------------------------

    def begin_span(
        self,
        kind: str,
        name: str,
        start_ns: int,
        parent: Optional[Span] = None,
        **attrs: Any,
    ) -> Span:
        span = Span(
            self._next_id,
            parent.span_id if parent is not None else None,
            kind,
            name,
            start_ns,
            attrs,
        )
        self._next_id += 1
        self.spans.append(span)
        self._open[span.span_id] = span
        return span

    def end_span(self, span: Span, end_ns: int, **attrs: Any) -> None:
        """Close a span; the finished record reaches the sink here."""
        if span.end_ns is not None:
            return  # idempotent: scenario teardown may sweep already-closed spans
        if attrs:
            span.attrs.update(attrs)
        span.end_ns = max(end_ns, span.start_ns)
        self._open.pop(span.span_id, None)
        self.sink.emit(span.to_record())

    def event(
        self,
        kind: str,
        name: str = "",
        span: Optional[Span] = None,
        time_ns: int = 0,
        **attrs: Any,
    ) -> Event:
        event = Event(
            self._next_id,
            span.span_id if span is not None else None,
            kind,
            name,
            time_ns,
            attrs,
        )
        self._next_id += 1
        self.events.append(event)
        self.sink.emit(event.to_record())
        return event

    # -- teardown -------------------------------------------------------------

    def open_spans(self) -> List[Span]:
        return list(self._open.values())

    def finish(self, end_ns: int) -> None:
        """Close any still-open spans (flagged) and close the sink.

        A span that had to be closed here means some pipeline stage never
        reached its natural end — the trace-invariant tests treat the
        ``unclosed`` flag as a degradation marker, never as absence.
        """
        # Close in id order so output order is deterministic.
        for span in sorted(self._open.values(), key=lambda s: s.span_id):
            self.end_span(span, end_ns, unclosed=True)
        self.finished = True
        self.sink.close()

    # -- introspection --------------------------------------------------------

    def records(self) -> List[Dict[str, Any]]:
        """Every retained record, in id order (spans and events merged)."""
        merged = [span.to_record() for span in self.spans]
        merged.extend(event.to_record() for event in self.events)
        merged.sort(key=lambda r: r["id"])
        return merged
