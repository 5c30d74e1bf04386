"""Wire-protocol unit tests: framing, validation, response vocabulary."""

import json

import pytest

from repro.serve.protocol import (
    MAX_LINE_BYTES,
    ProtocolError,
    encode,
    error,
    event,
    ok,
    parse_request,
    rejected,
)


class TestEncode:
    def test_one_compact_line(self):
        line = encode({"op": "ping", "id": 1})
        assert line.endswith(b"\n")
        assert b" " not in line  # compact separators
        assert json.loads(line) == {"op": "ping", "id": 1}

    def test_roundtrip_through_parse(self):
        line = encode({"op": "query", "id": "q-1", "victim": "f1"})
        assert parse_request(line.strip()) == {
            "op": "query", "id": "q-1", "victim": "f1",
        }


class TestParseRequest:
    def test_valid_ops(self):
        for op in ("hello", "subscribe", "unsubscribe", "query", "stats",
                   "ping"):
            assert parse_request(json.dumps({"op": op}).encode())["op"] == op

    @pytest.mark.parametrize("line,code", [
        (b"not json at all", "bad-json"),
        (b"[1,2,3]", "bad-request"),
        (b'"just a string"', "bad-request"),
        (b'{"op": "launch-missiles"}', "unknown-op"),
        (b'{"no": "op"}', "unknown-op"),
        (b'{"op": "ping", "id": [1]}', "bad-id"),
        (b'{"op": "hello", "tenant": ""}', "bad-tenant"),
        (b'{"op": "hello", "tenant": 7}', "bad-tenant"),
        (b'{"op": "query", "victim": 9}', "bad-victim"),
    ])
    def test_malformed(self, line, code):
        with pytest.raises(ProtocolError) as excinfo:
            parse_request(line)
        assert excinfo.value.code == code

    def test_oversized_line(self):
        line = json.dumps({"op": "ping", "pad": "x" * MAX_LINE_BYTES}).encode()
        with pytest.raises(ProtocolError) as excinfo:
            parse_request(line)
        assert excinfo.value.code == "line-too-long"

    def test_id_types(self):
        assert parse_request(b'{"op": "ping", "id": 3}')["id"] == 3
        assert parse_request(b'{"op": "ping", "id": "a"}')["id"] == "a"


class TestResponses:
    def test_ok_echoes_id_and_fields(self):
        message = ok("result", 7, victim="f1")
        assert message == {
            "ok": True, "type": "result", "id": 7, "victim": "f1",
        }

    def test_error_shape(self):
        message = error("bad-json", "nope", request_id="r")
        assert message["ok"] is False
        assert message["type"] == "error"
        assert message["error"] == "bad-json"
        assert message["id"] == "r"

    def test_rejected_carries_retry_hint(self):
        message = rejected("rate-limit", 1, retry_after_s=0.25)
        assert message["ok"] is False
        assert message["type"] == "rejected"
        assert message["reason"] == "rate-limit"
        assert message["retry_after_s"] == 0.25

    def test_rejected_omits_zero_hint(self):
        assert "retry_after_s" not in rejected("rate-limit", 1)

    def test_event_carries_clock_and_seq(self):
        message = event("alert", 123.5, 9, category="pfc_storm")
        assert message["type"] == "event"
        assert message["event"] == "alert"
        assert message["ts"] == 123.5
        assert message["seq"] == 9
        assert message["category"] == "pfc_storm"
