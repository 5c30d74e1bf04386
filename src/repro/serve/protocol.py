"""The serve wire protocol: one JSON object per line, both directions.

Requests carry an ``op`` plus an optional client-chosen ``id`` that is
echoed on the matching response, so a client may pipeline requests over
one connection.  Stream events (``type: "event"``) are unsolicited and
interleave with responses; every event carries the server's wall-clock
``ts`` at publish time so clients can measure delivery lag.

Request ops::

    {"op": "hello", "tenant": "team-a"}          # bind the connection's tenant
    {"op": "subscribe", "id": 1}                  # start the alert/incident feed
    {"op": "unsubscribe", "id": 2}
    {"op": "query", "id": 3, "victim": "..."}    # diagnose one victim now
    {"op": "stats", "id": 4}                      # the /servicez document
    {"op": "ping", "id": 5}

Responses are ``{"ok": true, "type": ..., "id": ...}`` or
``{"ok": false, "type": "error" | "rejected", ...}``.  ``rejected`` is
load shedding, not failure: the admission controller refused the query
(``reason`` is ``rate-limit``) and the client should back off.  A
terminal event — ``{"type": "event", "event": "shutdown"}`` or
``"evicted"`` — is always the last line a subscriber receives.

Framing is bounded: a request line longer than :data:`MAX_LINE_BYTES`
is a protocol error (the connection is closed after the error reply).
"""

from __future__ import annotations

import json
from typing import Any, Dict, Optional

PROTOCOL_VERSION = 1

# Bound on a single request line; generous for any legitimate request
# (the largest is a query naming one victim flow).
MAX_LINE_BYTES = 64 * 1024

#: Ops a client may send, with the extra fields each accepts.
REQUEST_OPS = {
    "hello": ("tenant",),
    "subscribe": (),
    "unsubscribe": (),
    "query": ("victim",),
    "stats": (),
    "ping": (),
}


class ProtocolError(ValueError):
    """A malformed request; ``code`` is the machine-readable reason."""

    def __init__(self, code: str, detail: str) -> None:
        super().__init__(detail)
        self.code = code
        self.detail = detail


def encode(message: Dict[str, Any]) -> bytes:
    """One protocol line: compact JSON + newline (the framing unit)."""
    return json.dumps(message, separators=(",", ":")).encode() + b"\n"


def parse_request(line: bytes) -> Dict[str, Any]:
    """Validate one request line into a request dict.

    Raises :class:`ProtocolError` on oversized lines, non-JSON, non-object
    payloads, unknown ops and ill-typed fields — the service answers every
    one with an explicit ``error`` response instead of dying or silently
    dropping the line.
    """
    if len(line) > MAX_LINE_BYTES:
        raise ProtocolError(
            "line-too-long", f"request line exceeds {MAX_LINE_BYTES} bytes"
        )
    try:
        payload = json.loads(line)
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ProtocolError("bad-json", f"request is not valid JSON: {exc}")
    if not isinstance(payload, dict):
        raise ProtocolError("bad-request", "request must be a JSON object")
    op = payload.get("op")
    if not isinstance(op, str) or op not in REQUEST_OPS:
        raise ProtocolError(
            "unknown-op",
            f"op must be one of {sorted(REQUEST_OPS)}, got {op!r}",
        )
    request_id = payload.get("id")
    if request_id is not None and not isinstance(request_id, (int, str)):
        raise ProtocolError("bad-id", "id must be an int or a string")
    tenant = payload.get("tenant")
    if tenant is not None and (not isinstance(tenant, str) or not tenant):
        raise ProtocolError("bad-tenant", "tenant must be a non-empty string")
    victim = payload.get("victim")
    if victim is not None and not isinstance(victim, str):
        raise ProtocolError("bad-victim", "victim must be a string")
    return payload


# -- response builders (the service's vocabulary) ---------------------------


def ok(type_: str, request_id: Optional[Any] = None, **fields: Any) -> Dict[str, Any]:
    message: Dict[str, Any] = {"ok": True, "type": type_}
    if request_id is not None:
        message["id"] = request_id
    message.update(fields)
    return message


def error(
    code: str, detail: str, request_id: Optional[Any] = None
) -> Dict[str, Any]:
    message: Dict[str, Any] = {
        "ok": False,
        "type": "error",
        "error": code,
        "detail": detail,
    }
    if request_id is not None:
        message["id"] = request_id
    return message


def rejected(
    reason: str, request_id: Optional[Any] = None, retry_after_s: float = 0.0
) -> Dict[str, Any]:
    """Explicit load-shedding: the query was refused, not lost."""
    message: Dict[str, Any] = {
        "ok": False,
        "type": "rejected",
        "reason": reason,
    }
    if retry_after_s > 0:
        message["retry_after_s"] = round(retry_after_s, 6)
    if request_id is not None:
        message["id"] = request_id
    return message


def event(kind: str, ts: float, seq: int, **fields: Any) -> Dict[str, Any]:
    message: Dict[str, Any] = {
        "type": "event",
        "event": kind,
        "ts": ts,
        "seq": seq,
    }
    message.update(fields)
    return message
