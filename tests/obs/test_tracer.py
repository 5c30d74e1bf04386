"""Tracer unit tests: span lifecycle and sink contract."""

import io
import json

import pytest

from repro.obs import JsonlSink, ListSink, NullSink, Tracer


class TestSpanLifecycle:
    def test_parent_links_nest(self):
        tracer = Tracer()
        root = tracer.begin_span("scenario", "run", 0)
        child = tracer.begin_span("diagnosis", "v1", 10, parent=root)
        grandchild = tracer.begin_span("polling_round", "round-1", 20, parent=child)
        assert root.parent_id is None
        assert child.parent_id == root.span_id
        assert grandchild.parent_id == child.span_id
        # Ids are one shared monotone sequence (global emission order).
        assert root.span_id < child.span_id < grandchild.span_id

    def test_end_span_is_idempotent(self):
        sink = ListSink()
        tracer = Tracer(sink)
        span = tracer.begin_span("epoch_read", "SW1", 100)
        tracer.end_span(span, 200, epochs=3)
        tracer.end_span(span, 999, epochs=777)  # second end: ignored
        assert span.end_ns == 200
        assert span.attrs["epochs"] == 3
        assert len(sink.records) == 1

    def test_end_clamps_to_start(self):
        tracer = Tracer()
        span = tracer.begin_span("graph_build", "v1", 500)
        tracer.end_span(span, 400)  # never goes backwards in time
        assert span.end_ns == 500

    def test_open_spans_tracks_unended(self):
        tracer = Tracer()
        a = tracer.begin_span("scenario", "run", 0)
        b = tracer.begin_span("diagnosis", "v1", 1, parent=a)
        assert {s.span_id for s in tracer.open_spans()} == {a.span_id, b.span_id}
        tracer.end_span(b, 2)
        assert [s.span_id for s in tracer.open_spans()] == [a.span_id]

    def test_finish_flags_unclosed_spans(self):
        sink = ListSink()
        tracer = Tracer(sink)
        a = tracer.begin_span("scenario", "run", 0)
        tracer.begin_span("diagnosis", "v1", 5, parent=a)
        tracer.finish(100)
        assert tracer.finished
        assert not tracer.open_spans()
        # Both spans were force-closed at finish time, flagged not dropped.
        assert all(r["end_ns"] == 100 and r["attrs"]["unclosed"] for r in sink.records)

    def test_records_merged_in_id_order(self):
        tracer = Tracer()
        root = tracer.begin_span("scenario", "run", 0)
        tracer.event("rtt_trigger", span=root, time_ns=10)
        child = tracer.begin_span("diagnosis", "v1", 10, parent=root)
        tracer.event("verdict", span=child, time_ns=20)
        tracer.end_span(child, 20)
        tracer.end_span(root, 30)
        records = tracer.records()
        assert [r["id"] for r in records] == [1, 2, 3, 4]
        assert [r["type"] for r in records] == ["span", "event", "span", "event"]


class TestSinks:
    def test_sink_receives_events_immediately_spans_on_end(self):
        sink = ListSink()
        tracer = Tracer(sink)
        span = tracer.begin_span("scenario", "run", 0)
        assert sink.records == []  # spans are emitted when they *end*
        tracer.event("polling_mirror", span=span, time_ns=5, switch="SW1")
        assert [r["type"] for r in sink.records] == ["event"]
        tracer.end_span(span, 10)
        assert [r["type"] for r in sink.records] == ["event", "span"]

    def test_tracer_keeps_every_record_over_a_null_sink(self):
        """In-process consumers read ``records()``, never a sink."""
        tracer = Tracer(NullSink())
        for i in range(5):
            tracer.event("pkt_enqueue", time_ns=i)
        assert [r["time_ns"] for r in tracer.records()] == [0, 1, 2, 3, 4]

    def test_jsonl_sink_writes_sorted_compact_lines(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        tracer = Tracer(JsonlSink(str(path)))
        span = tracer.begin_span("scenario", "run", 0)
        tracer.event("verdict", span=span, time_ns=7, anomaly="pfc_storm")
        tracer.finish(9)
        lines = path.read_text().splitlines()
        assert len(lines) == 2
        for line in lines:
            record = json.loads(line)
            # Byte-determinism contract: sorted keys, compact separators.
            assert line == json.dumps(record, sort_keys=True, separators=(",", ":"))
        kinds = {json.loads(line)["kind"] for line in lines}
        assert kinds == {"verdict", "scenario"}

    def test_jsonl_sink_borrowed_handle_not_closed(self):
        buf = io.StringIO()
        sink = JsonlSink(buf)
        sink.emit({"type": "event", "id": 1})
        sink.close()
        assert not buf.closed  # caller-owned handles stay open
        assert buf.getvalue().count("\n") == 1

    def test_sink_swap_between_runs(self, tmp_path):
        """The same instrumentation drives any sink: records are identical."""
        def run(sink):
            tracer = Tracer(sink)
            root = tracer.begin_span("scenario", "run", 0)
            tracer.event("stall_trigger", span=root, time_ns=3)
            tracer.finish(5)
            return tracer.records()

        buf, lst = io.StringIO(), ListSink()
        assert run(NullSink()) == run(JsonlSink(buf)) == run(lst)
        assert [json.loads(line) for line in buf.getvalue().splitlines()] == (
            lst.records
        )
