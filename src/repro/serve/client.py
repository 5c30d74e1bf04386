"""A small asyncio client for the serve protocol (tests, benches, examples).

:class:`ServeClient` owns one connection and a background reader that
demultiplexes the two interleaved streams the server may send on it:
responses (matched to their request ``id`` and resolved as futures) and
unsolicited stream events (parked on :attr:`ServeClient.events` for
:meth:`next_event`).  Request ids are assigned automatically, so calls
can be pipelined from concurrent tasks over a single connection.

:func:`http_get` is the scrape-side counterpart: a blocking, raw-socket
one-shot GET against the same listener (no http.client dependency in the
hot path of the benches), returning ``(status, headers, body)``.
"""

from __future__ import annotations

import asyncio
import json
import socket
from typing import Any, Dict, List, Optional, Tuple

from .protocol import MAX_LINE_BYTES, encode

__all__ = ["ServeClient", "http_get"]


class ServeClient:
    """One protocol connection; create via :meth:`connect`."""

    def __init__(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter,
        tenant: str = "anon",
    ) -> None:
        self.reader = reader
        self.writer = writer
        self.tenant = tenant
        self.events: "asyncio.Queue[Dict[str, Any]]" = asyncio.Queue()
        self.stray: List[Dict[str, Any]] = []  # responses with no waiter
        self.closed = False
        self._next_id = 1
        self._pending: Dict[int, "asyncio.Future[Dict[str, Any]]"] = {}
        self._reader_task = asyncio.ensure_future(self._read_loop())

    @classmethod
    async def connect(
        cls,
        unix_path: Optional[str] = None,
        host: Optional[str] = None,
        port: Optional[int] = None,
        tenant: str = "anon",
    ) -> "ServeClient":
        """Connect and bind the tenant (sends ``hello`` when non-anon)."""
        limit = 2 * MAX_LINE_BYTES
        if unix_path is not None:
            reader, writer = await asyncio.open_unix_connection(
                unix_path, limit=limit
            )
        elif port is not None:
            reader, writer = await asyncio.open_connection(
                host or "127.0.0.1", port, limit=limit
            )
        else:
            raise ValueError("need a unix socket path or a TCP port")
        client = cls(reader, writer, tenant=tenant)
        if tenant != "anon":
            await client.hello(tenant)
        return client

    # -- plumbing ------------------------------------------------------------

    async def _read_loop(self) -> None:
        try:
            while True:
                line = await self.reader.readline()
                if not line:
                    break
                message = json.loads(line)
                request_id = message.get("id")
                if message.get("type") == "event":
                    self.events.put_nowait(message)
                elif request_id in self._pending:
                    future = self._pending.pop(request_id)
                    if not future.done():
                        future.set_result(message)
                else:
                    self.stray.append(message)
        except (ConnectionError, asyncio.CancelledError):
            pass
        finally:
            self.closed = True
            for future in self._pending.values():
                if not future.done():
                    future.set_exception(ConnectionError("connection closed"))
            self._pending.clear()

    async def request(self, op: str, **fields: Any) -> Dict[str, Any]:
        """Send one request and await its matched response."""
        if self.closed:
            raise ConnectionError("client is closed")
        request_id = self._next_id
        self._next_id += 1
        future: "asyncio.Future[Dict[str, Any]]" = (
            asyncio.get_running_loop().create_future()
        )
        self._pending[request_id] = future
        payload = {"op": op, "id": request_id}
        payload.update(fields)
        self.writer.write(encode(payload))
        await self.writer.drain()
        return await future

    # -- the protocol ops ----------------------------------------------------

    async def hello(self, tenant: str) -> Dict[str, Any]:
        self.tenant = tenant
        return await self.request("hello", tenant=tenant)

    async def subscribe(self) -> Dict[str, Any]:
        return await self.request("subscribe")

    async def unsubscribe(self) -> Dict[str, Any]:
        return await self.request("unsubscribe")

    async def query(self, victim: Optional[str] = None) -> Dict[str, Any]:
        fields = {} if victim is None else {"victim": victim}
        return await self.request("query", **fields)

    async def stats(self) -> Dict[str, Any]:
        return await self.request("stats")

    async def ping(self) -> Dict[str, Any]:
        return await self.request("ping")

    async def next_event(
        self, timeout: Optional[float] = None
    ) -> Dict[str, Any]:
        """The next stream event (raises ``asyncio.TimeoutError``)."""
        if timeout is None:
            return await self.events.get()
        return await asyncio.wait_for(self.events.get(), timeout)

    async def close(self) -> None:
        if not self.closed:
            self.closed = True
            self._reader_task.cancel()
            with_suppress = asyncio.gather(
                self._reader_task, return_exceptions=True
            )
            await with_suppress
        self.writer.close()
        try:
            await self.writer.wait_closed()
        except (ConnectionError, OSError):
            pass


def http_get(
    path: str,
    unix_path: Optional[str] = None,
    host: Optional[str] = None,
    port: Optional[int] = None,
    timeout_s: float = 10.0,
) -> Tuple[int, Dict[str, str], str]:
    """Blocking one-shot GET against the serve listener.

    Returns ``(status, headers, body)``.  Works over unix or TCP sockets
    — the stdlib http.client has no unix-socket support, and the serve
    listener always answers with ``Connection: close``, so read-to-EOF
    framing is sufficient.
    """
    if unix_path is not None:
        sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
    elif port is not None:
        sock = socket.create_connection(
            (host or "127.0.0.1", port), timeout=timeout_s
        )
    else:
        raise ValueError("need a unix socket path or a TCP port")
    try:
        if unix_path is not None:
            sock.settimeout(timeout_s)
            sock.connect(unix_path)
        sock.sendall(
            f"GET {path} HTTP/1.1\r\nHost: repro\r\n"
            f"Connection: close\r\n\r\n".encode()
        )
        chunks = []
        while True:
            chunk = sock.recv(65536)
            if not chunk:
                break
            chunks.append(chunk)
    finally:
        sock.close()
    raw = b"".join(chunks)
    head, _, body = raw.partition(b"\r\n\r\n")
    lines = head.decode("latin-1").split("\r\n")
    status = int(lines[0].split()[1]) if lines and lines[0] else 0
    headers: Dict[str, str] = {}
    for line in lines[1:]:
        name, _, value = line.partition(":")
        headers[name.strip().lower()] = value.strip()
    return status, headers, body.decode()
