"""In-memory span recorder for the traced run.

Spans are recorded from ``bench/`` code around calls into the program's
public surface (spans inside the program are a later change).  A span is
``name, start, end, parent, op_id``; spans of one operation share its
``op_id``.  Nothing is written until :meth:`Recorder.write_jsonl` at the
end of the run.

A layer's *self time* is its span's duration minus the part of that
interval its child spans cover, so the self times of a tree sum to the
root's duration exactly.
"""

from __future__ import annotations

import contextlib
import json
import time
from dataclasses import asdict, dataclass
from typing import Dict, Iterator, List, Optional

_NULL = contextlib.nullcontext()


@dataclass
class Span:
    span_id: int
    name: str
    start: float
    end: float
    parent: Optional[int]
    op_id: Optional[str]

    @property
    def duration(self) -> float:
        return self.end - self.start


class Recorder:
    """Collects spans while ``enabled``; a disabled recorder costs one
    attribute read per ``span()`` call and records nothing."""

    def __init__(self, enabled: bool = False) -> None:
        self.enabled = enabled
        self.spans: List[Span] = []
        self._stack: List[Span] = []

    def span(self, name: str, op_id: Optional[str] = None):
        """Context manager timing one nested span (synchronous code)."""
        if not self.enabled:
            return _NULL
        return self._span(name, op_id)

    @contextlib.contextmanager
    def _span(self, name: str, op_id: Optional[str]) -> Iterator[Span]:
        parent = self._stack[-1] if self._stack else None
        if op_id is None and parent is not None:
            op_id = parent.op_id
        span = Span(
            len(self.spans), name, time.perf_counter(), 0.0,
            parent.span_id if parent is not None else None, op_id,
        )
        self.spans.append(span)
        self._stack.append(span)
        try:
            yield span
        finally:
            self._stack.pop()
            span.end = time.perf_counter()

    def add(
        self, name: str, start: float, end: float,
        parent: Optional[Span] = None, op_id: Optional[str] = None,
    ) -> Optional[Span]:
        """Record a span whose bounds the caller measured (concurrent
        tasks cannot share the nesting stack)."""
        if not self.enabled:
            return None
        if op_id is None and parent is not None:
            op_id = parent.op_id
        span = Span(
            len(self.spans), name, start, end,
            parent.span_id if parent is not None else None, op_id,
        )
        self.spans.append(span)
        return span

    def durations(self, name: str) -> List[float]:
        return [s.duration for s in self.spans if s.name == name]

    def write_jsonl(self, path) -> None:
        with open(path, "w") as handle:
            for span in self.spans:
                handle.write(json.dumps(asdict(span)) + "\n")


def self_times(spans: List[Span]) -> Dict[int, float]:
    """span_id -> duration minus the time its direct children cover."""
    out = {span.span_id: span.duration for span in spans}
    for span in spans:
        if span.parent is not None:
            out[span.parent] -= span.duration
    return out


def budget(spans: List[Span], root_name: str) -> Dict[str, float]:
    """Self time summed by span name over the trees rooted at
    ``root_name`` spans.  The values sum to those roots' total duration."""
    by_id = {span.span_id: span for span in spans}
    selfs = self_times(spans)

    def root_of(span: Span) -> Span:
        while span.parent is not None:
            span = by_id[span.parent]
        return span

    rows: Dict[str, float] = {}
    for span in spans:
        if root_of(span).name == root_name:
            rows[span.name] = rows.get(span.name, 0.0) + selfs[span.span_id]
    return rows
