"""The diagnosis service: one asyncio loop, one live fabric, many tenants.

Execution model
---------------

One thread.  The simulator is pure Python and never releases the
interpreter lock, and diagnosis reads its live state, so a second thread
could add no parallelism — only a lock hand-off in front of every
request.  *All* fabric work — advancing the sim, finishing an episode,
answering a query, rendering an export — is therefore a plain call on
the event loop, exclusive by construction:

- the **slice loop** (:meth:`DiagnosisService._pump`) advances the
  current episode ``slice_ns`` of simulated time per slice, in chunks.  A
  chunk ends when :data:`CHUNK_EVENTS` events have run or — the usual
  reason under load — when somebody is waiting: every
  :data:`POLL_EVENTS` events the simulator asks
  :meth:`DiagnosisService._request_waiting`, one ``poll(0)`` over the
  listener(s) and every open connection, and a readable socket is a
  spent budget.  After each chunk the loop drains newly raised monitor
  alerts/timeline incidents into the
  :class:`~repro.serve.broker.StreamBroker` and gets :data:`IO_PASSES`
  passes, enough for every request that was readable when the chunk
  ended to be read, answered and written before the next chunk starts
  (twice that while the listener is readable: a new connection's handler
  has to start, and put it in the poll set, before its first request is
  a request like any other);
- **queries** run inside those passes, so a query observes a quiescent
  fabric and the sim never races a diagnosis.  A request waits for at
  most one poll interval (~0.25 ms; the part of its latency the server
  cannot see), then costs its own handling (``serve.query.wall_s``, of
  which ``serve.query.exec_s`` is the diagnosis) — however many events
  the storm packs into a slice.  ``serve.chunks.preempted`` of
  ``serve.chunks`` were cut short by a request; ``serve.chunk.wall_s`` is
  what one hand-over costs the sim's cadence, and at its full budget the
  longest a timer, a signal or a stream writer — none of them in the
  poll set — waits for the loop.

A chunk ends between simulated instants, exactly where a slice boundary
could have fallen (:meth:`Simulator.run
<repro.sim.engine.Simulator.run>`), so neither the budget nor a waiting
request changes what runs or in what order — only where the timeline is
cut.

The poll set is kept honest so that it cannot starve the sim: a
descriptor leaves it wherever its connection ends, and one that reports
``POLLHUP``/``POLLERR``/``POLLNVAL`` ends the chunk once — asyncio sees
the same condition and closes it — and is dropped on the spot, so a
client that vanished cannot hold ``poll(0)`` true.  A client that floods
does hold it true, and that is the progress floor: every chunk still
runs one poll interval of events before the first question, so the sim
advances at least :data:`POLL_EVENTS` events per I/O round while the
round answers everything the flood had buffered — rejections, mostly:
the per-tenant token bucket sheds the excess, and the ``serve_scale``
bench gates the p99.

Episodes: the fabric replays its scenario continuously.  Episode ``k``
is built at ``seed + k``, advanced to its duration, finished (the batch
epilogue — flush, per-victim diagnoses, incident linkage) and replaced
by episode ``k+1``.  Episode 0 is byte-identical to ``repro run
SCENARIO --seed SEED`` by construction (same
:class:`~repro.experiments.runner.FabricSession` path; pinned by the
served-episode row of ``tests/test_determinism_matrix.py``).

The same listener speaks two protocols: lines starting with ``GET ``/
``HEAD `` get a one-shot HTTP response (Prometheus/JSONL/HTML exporters,
``/healthz``, ``/servicez``); anything else is the line-oriented JSON
protocol of :mod:`repro.serve.protocol`.
"""

from __future__ import annotations

import asyncio
import contextlib
import json
import os
import resource
import select
import signal
import time
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Set

from ..experiments.runner import FabricSession, RunConfig, RunResult
from ..monitor.export import (
    jsonl_snapshot,
    prometheus_text,
    registry_prometheus_text,
    render_html,
)
from ..monitor.monitor import MonitorConfig
from ..obs.metrics import MetricsRegistry
from ..units import usec
from ..workloads import SCENARIO_BUILDERS
from .admission import AdmissionController
from .broker import TERMINAL_EVENTS, StreamBroker, Subscription
from .protocol import (
    MAX_LINE_BYTES,
    PROTOCOL_VERSION,
    ProtocolError,
    encode,
    error,
    event as make_event,
    ok,
    parse_request,
    rejected,
)

__all__ = ["ServeConfig", "DiagnosisService"]

# Events the sim runs before it hands the loop over unasked.  The served
# simulator costs ~4 us/event on the reference box (pfc-storm with the
# monitor on: 62.7k events in ~0.25 s), so 512 events is ~2 ms of host
# time: the most a timer, a signal or a blocked stream writer waits for the
# loop, against ~120 rounds of loop passes per idle episode (a few percent
# of a chunk each).  Requests do not wait that long: see POLL_EVENTS.
CHUNK_EVENTS = 512

# Events the sim runs between looks at the sockets.  One ``poll(0)`` costs
# ~0.5 us with a handful of descriptors and ~0.25 ms of sim (64 events) is
# the most a request waits before the chunk in progress ends for it; under
# 0.5 % of the sim's time either way.  Smaller buys little: the three loop
# passes and the answer itself cost more than the wait that is left.
POLL_EVENTS = 64

# What a descriptor nobody will ever read from again reports.
_POLL_DEAD = select.POLLHUP | select.POLLERR | select.POLLNVAL

# Loop passes handed over after each chunk.  asyncio runs the pump's own
# continuation before the I/O callbacks polled in the same pass, and a
# StreamReader request is a chain: pass 1 polls the socket and feeds the
# reader, pass 2 wakes the handler task, which answers and writes; only in
# pass 3 is the pump's turn behind them.  Each missing pass starts one more
# chunk in front of every request (measured p50 when only the budget ended
# a chunk: 6.2 / 4.5 / 2.6 ms at 1 / 2 / 3), and that chunk cannot see the
# request: asyncio has already taken its bytes off the socket.
IO_PASSES = 3

# The loop's nap once every episode has finished.
IDLE_SLEEP_S = 0.02

_STOP_SIGNALS = (signal.SIGTERM, signal.SIGINT)


def _rss_mb() -> float:
    """Resident set in MiB (the high-water mark where ``/proc`` is missing)."""
    try:
        with open("/proc/self/statm") as statm:
            pages = int(statm.read().split()[1])
        return pages * os.sysconf("SC_PAGE_SIZE") / 2**20
    except (OSError, ValueError, IndexError):
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


@dataclass(frozen=True)
class ServeConfig:
    """Everything ``repro serve`` exposes as flags (frozen, picklable)."""

    scenario: str = "pfc-storm"
    seed: int = 1
    episodes: Optional[int] = None      # None = replay forever
    slice_us: float = 200.0             # sim time per slice
    interval_us: float = 100.0          # monitor sampling cadence
    tenant_rate_per_s: float = 50.0     # per-tenant token refill
    tenant_burst: float = 20.0          # per-tenant token cap
    sub_queue: int = 256                # per-subscriber event queue bound

    def run_config(self) -> RunConfig:
        return RunConfig(
            monitor=MonitorConfig(interval_ns=usec(self.interval_us))
        )


def _execute_query(
    session: FabricSession, victim_str: Optional[str]
) -> Dict[str, Any]:
    """Resolve and diagnose one victim.

    Runs on the event loop between two chunks, so it may read
    triggers/reports freely.  Returns the JSON-ready body of the
    ``result`` response.
    """
    scenario = session.scenario
    victims = {str(v.key): v.key for v in scenario.victims}
    if victim_str is None or victim_str == "primary":
        # The batch notion of "primary": the earliest-complaining victim,
        # falling back to the scenario's first victim pre-trigger.
        triggered = [
            t for t in session.agent.triggers if str(t.victim) in victims
        ]
        if triggered:
            key = min(triggered, key=lambda t: t.time_ns).victim
        elif victims:
            key = next(iter(victims.values()))
        else:
            return {"status": "no-victims", "victims": []}
    else:
        key = victims.get(victim_str)
        if key is None:
            return {
                "status": "unknown-victim",
                "victims": sorted(victims),
            }
    outcome = session.diagnose_now(key)
    if outcome is None:
        return {
            "status": "no-trigger",
            "victim": str(key),
            "sim_ns": session.now_ns,
        }
    diagnosis = outcome.diagnosis
    finding = diagnosis.primary()
    return {
        "status": "diagnosed",
        "victim": str(key),
        "sim_ns": session.now_ns,
        "trigger_ns": outcome.trigger.time_ns,
        "anomaly": finding.anomaly.value,
        "confidence": diagnosis.confidence,
        "completeness": diagnosis.completeness,
        "culprits": [str(k) for k in finding.culprit_keys()],
        "diagnosis": diagnosis.describe(),
    }


class DiagnosisService:
    """The long-lived server; everything runs on the event loop."""

    def __init__(
        self, config: Optional[ServeConfig] = None,
        registry: Optional[MetricsRegistry] = None,
    ) -> None:
        self.config = config if config is not None else ServeConfig()
        if self.config.scenario not in SCENARIO_BUILDERS:
            raise ValueError(
                f"unknown scenario {self.config.scenario!r}; choose from "
                f"{', '.join(sorted(SCENARIO_BUILDERS))}"
            )
        self.registry = registry if registry is not None else MetricsRegistry()
        self.broker = StreamBroker(self.registry)
        self.admission = AdmissionController(
            tenant_rate_per_s=self.config.tenant_rate_per_s,
            tenant_burst=self.config.tenant_burst,
            metrics=self.registry,
        )
        self.session: Optional[FabricSession] = None
        self.last_result: Optional[RunResult] = None
        self.episode = -1
        self.episodes_completed = 0
        self._alert_cursor = 0
        self._incident_cursor = 0
        self._episode_finished = False
        self._running = False
        self._started_s = time.monotonic()
        self._last_chunk_s = time.monotonic()
        self._servers: List[asyncio.AbstractServer] = []
        self._pump_task: Optional[asyncio.Task] = None
        self._forwarders: Set[asyncio.Task] = set()
        self._writers: Set[asyncio.StreamWriter] = set()
        # Listener(s) and open connections, for _request_waiting; the
        # listener(s) alone, for _yield_to_io.
        self._poll = select.poll()
        self._listeners = select.poll()
        self._stopped = asyncio.Event()
        self._stop_requested: Optional[asyncio.Event] = None
        self.addresses: List[str] = []

    # -- episode lifecycle ---------------------------------------------------

    def _start_episode(self) -> None:
        # Let go of the finished episode first: its fabric is reclaimed
        # when the next one attaches, so the service holds one, not two.
        self.session = None
        self.last_result = None
        self.episode += 1
        seed = self.config.seed + self.episode
        scenario = SCENARIO_BUILDERS[self.config.scenario](seed=seed)
        self.session = FabricSession(scenario, self.config.run_config())
        self._alert_cursor = 0
        self._incident_cursor = 0
        self._episode_finished = False
        self.registry.gauge("serve.episode").set(float(self.episode))
        self.broker.publish(
            "episode-start",
            episode=self.episode,
            scenario=self.config.scenario,
            seed=seed,
        )

    def _drain_feed(self) -> None:
        """Publish monitor alerts/incidents raised since the last drain."""
        session = self.session
        if session is None or session.monitor is None:
            return
        monitor = session.monitor
        alerts = monitor.engine.alerts
        for alert in alerts[self._alert_cursor:]:
            self.broker.publish(
                "alert", episode=self.episode, **alert.to_dict()
            )
        self._alert_cursor = len(alerts)
        incidents = monitor.timeline.incidents
        for incident in incidents[self._incident_cursor:]:
            doc = incident.to_dict()
            doc.pop("alerts", None)  # the feed already streamed them
            self.broker.publish("incident", episode=self.episode, **doc)
        self._incident_cursor = len(incidents)

    async def _yield_to_io(self) -> None:
        """Let every request already readable be answered (IO_PASSES)."""
        # A connection being made is two chains: accept, transport,
        # handler task — only then is it in the poll set — and its first
        # request like any other.  One round would leave that request
        # behind a chunk it cannot cut short.
        rounds = 2 if self._listeners.poll(0) else 1
        for _ in range(rounds * IO_PASSES):
            await asyncio.sleep(0)
        # A reader this thread just woke is often queued on this CPU,
        # behind the chunk about to start: let it run first (stream lag
        # p95 4.7 -> 0.8 ms; returns at once when nobody is waiting).
        os.sched_yield()

    def _watch(self, sock: Any) -> int:
        """Put a listener or connection in the poll set; returns its fd."""
        fd = sock.fileno()
        if fd >= 0:  # -1: reset by the peer before its handler first ran
            self._poll.register(fd, select.POLLIN)
        return fd

    def _unwatch(self, fd: int) -> None:
        """Take ``fd`` out of the poll set (a no-op if it already left)."""
        with contextlib.suppress(KeyError, ValueError):
            self._poll.unregister(fd)

    def _request_waiting(self) -> bool:
        """Is a socket readable?  The sim asks every :data:`POLL_EVENTS`
        events; yes ends the chunk in progress."""
        ready = self._poll.poll(0)
        if not ready:
            return False
        for fd, flags in ready:
            if flags & _POLL_DEAD:
                # asyncio is told the same by its own selector and closes
                # the connection; left in, it would answer yes forever.
                self._unwatch(fd)
        self.registry.inc("serve.chunks.preempted")
        return True

    async def _run_slice(self, session: FabricSession, target_ns: int) -> None:
        """Advance to ``target_ns`` chunk by chunk, serving between chunks."""
        histogram = self.registry.histogram
        sim_s = 0.0
        while self._running and session.now_ns < target_ns:
            t0 = time.perf_counter()
            session.advance(
                target_ns, CHUNK_EVENTS, self._request_waiting, POLL_EVENTS
            )
            chunk_s = time.perf_counter() - t0
            self.registry.inc("serve.chunks")
            histogram("serve.chunk.wall_s").observe(chunk_s)
            sim_s += chunk_s
            self._last_chunk_s = time.monotonic()
            self._drain_feed()
            await self._yield_to_io()
        self.registry.inc("serve.slices")
        histogram("serve.slice.wall_s").observe(sim_s)

    def _finish_episode(self, session: FabricSession) -> None:
        """The batch epilogue, then the episode's closing stream event."""
        result = session.finish()
        self._episode_finished = True
        self.last_result = result
        self.episodes_completed += 1
        self.registry.inc("serve.episodes.completed")
        self._drain_feed()  # finish() records the incidents
        outcome = result.primary_outcome()
        self.broker.publish(
            "episode-end",
            episode=self.episode,
            scenario=self.config.scenario,
            seed=self.config.seed + self.episode,
            alerts=len(result.monitor.alerts)
            if result.monitor is not None else 0,
            verdict=(
                outcome.diagnosis.primary().anomaly.value
                if outcome is not None and outcome.diagnosis is not None
                else None
            ),
        )

    async def _pump(self) -> None:
        """The slice loop: advance, finish, start the next episode (or idle)."""
        slice_ns = max(1, int(usec(self.config.slice_us)))
        while self._running:
            session = self.session
            if not session.complete:
                await self._run_slice(
                    session,
                    min(session.now_ns + slice_ns, session.duration_ns),
                )
            elif not self._episode_finished:
                self._finish_episode(session)
                await self._yield_to_io()
            elif (
                self.config.episodes is None
                or self.episode + 1 < self.config.episodes
            ):
                del session  # it would pin the finished fabric
                self._start_episode()
                await self._yield_to_io()
            else:
                # All episodes replayed: stay up, serve queries/scrapes/streams.
                await asyncio.sleep(IDLE_SLEEP_S)

    # -- query path ----------------------------------------------------------

    def _handle_query(
        self, tenant: str, victim: Optional[str], request_id: Any
    ) -> Dict[str, Any]:
        t0 = time.perf_counter()
        reason, retry_after = self.admission.admit(tenant)
        if reason is not None:
            return rejected(reason, request_id, retry_after_s=retry_after)
        session = self.session
        try:
            if session is None:
                return error("not-ready", "no episode is live yet", request_id)
            t1 = time.perf_counter()
            body = _execute_query(session, victim)
            now = time.perf_counter()
            wall_s, exec_s = now - t0, now - t1
            self.registry.histogram("serve.query.wall_s").observe(wall_s)
            self.registry.histogram("serve.query.exec_s").observe(exec_s)
            self.registry.inc("serve.queries.completed")
            return ok(
                "result",
                request_id,
                episode=self.episode,
                wall_s=round(wall_s, 6),
                exec_s=round(exec_s, 6),
                **body,
            )
        finally:
            self.admission.release()

    # -- self-observability --------------------------------------------------

    def _refresh_gauges(self) -> None:
        """Gauges that are only true at the instant they are read; every
        exposition (``/metrics``, ``/servicez``, ``stats``) calls this."""
        now_s = time.monotonic()
        gauge = self.registry.gauge
        gauge("serve.uptime_s").set(now_s - self._started_s)
        gauge("serve.feed_staleness_s").set(now_s - self._last_chunk_s)
        gauge("serve.rss_mb").set(_rss_mb())
        if self.session is not None:
            gauge("serve.sim_ns").set(float(self.session.now_ns))

    def servicez(self) -> Dict[str, Any]:
        """The ``/servicez`` document (also the ``stats`` op's body)."""
        self._refresh_gauges()
        doc = self.registry.to_dict()
        gauges = doc["gauges"]
        counters = doc["counters"]
        tenants: Dict[str, Dict[str, int]] = {}
        for name, value in counters.items():
            if not name.startswith("serve.tenant."):
                continue
            tenant, _, field = name[len("serve.tenant."):].rpartition(".")
            tenants.setdefault(tenant, {})[field] = value
        session = self.session
        return {
            "protocol": PROTOCOL_VERSION,
            "scenario": self.config.scenario,
            "seed": self.config.seed,
            "uptime_s": round(gauges["serve.uptime_s"], 3),
            "rss_mb": round(gauges["serve.rss_mb"], 1),
            "episode": self.episode,
            "episodes_completed": self.episodes_completed,
            "episode_complete": self._episode_finished,
            "sim_ns": session.now_ns if session is not None else 0,
            "sim_duration_ns": session.duration_ns if session is not None else 0,
            "feed_staleness_s": round(gauges["serve.feed_staleness_s"], 3),
            "slice_us": self.config.slice_us,
            "slices": counters.get("serve.slices", 0),
            "chunks": counters.get("serve.chunks", 0),
            "chunks_preempted": counters.get("serve.chunks.preempted", 0),
            "connections": len(self._writers),
            "stream": {
                "active": self.broker.active,
                "published": counters.get("serve.stream.published", 0),
                "delivered": counters.get("serve.stream.delivered", 0),
                "evicted": counters.get("serve.stream.evicted", 0),
            },
            "admission": self.admission.counters(),
            "tenants": tenants,
            "query_wall_s": doc["histograms"].get("serve.query.wall_s", {}),
            "query_exec_s": doc["histograms"].get("serve.query.exec_s", {}),
            "slice_wall_s": doc["histograms"].get("serve.slice.wall_s", {}),
            "chunk_wall_s": doc["histograms"].get("serve.chunk.wall_s", {}),
        }

    # -- HTTP (scrape endpoints on the same listener) ------------------------

    async def _handle_http(
        self, request_line: str, reader: asyncio.StreamReader,
        writer: asyncio.StreamWriter,
    ) -> None:
        self.registry.inc("serve.http.requests")
        # Drain the (ignored) header block so the client sees a clean close.
        while True:
            line = await reader.readline()
            if not line or line in (b"\r\n", b"\n"):
                break
        parts = request_line.split()
        path = parts[1] if len(parts) > 1 else "/"
        path = path.split("?", 1)[0]
        monitor = self.session.monitor if self.session is not None else None
        status, content_type, body = 200, "text/plain; charset=utf-8", ""
        if path == "/healthz":
            body = "ok\n" if self._running else "stopping\n"
        elif path == "/servicez":
            content_type = "application/json"
            body = json.dumps(self.servicez(), indent=2) + "\n"
        elif monitor is None:
            status, body = 503, "no live episode\n"
        elif path == "/metrics":
            content_type = "text/plain; version=0.0.4; charset=utf-8"
            self._refresh_gauges()
            body = prometheus_text(monitor)
            body += registry_prometheus_text(self.registry)
        elif path == "/jsonl":
            content_type = "application/x-ndjson"
            body = "\n".join(jsonl_snapshot(monitor)) + "\n"
        elif path in ("/html", "/dashboard"):
            content_type = "text/html; charset=utf-8"
            body = render_html(
                monitor, f"repro serve: {self.config.scenario}"
            )
        else:
            status, body = 404, f"no such endpoint: {path}\n"
        payload = body.encode()
        reason = {200: "OK", 404: "Not Found", 503: "Service Unavailable"}
        head = (
            f"HTTP/1.1 {status} {reason.get(status, 'OK')}\r\n"
            f"Content-Type: {content_type}\r\n"
            f"Content-Length: {len(payload)}\r\n"
            f"Connection: close\r\n\r\n"
        )
        if parts[0] == "HEAD":
            payload = b""  # the headers of the GET, true length included
        writer.write(head.encode() + payload)
        with contextlib.suppress(ConnectionError):
            await writer.drain()

    # -- the JSON protocol ---------------------------------------------------

    async def _forward(
        self, sub: Subscription, writer: asyncio.StreamWriter
    ) -> None:
        """Drain one subscription's queue onto its connection."""
        try:
            while True:
                message = await sub.queue.get()
                writer.write(encode(message))
                await writer.drain()
                sub.delivered += 1
                self.registry.inc("serve.stream.delivered")
                lag = time.time() - message.get("ts", time.time())
                self.registry.histogram("serve.stream.lag_s").observe(
                    max(0.0, lag)
                )
                if message.get("event") in TERMINAL_EVENTS:
                    return
        except (ConnectionError, asyncio.CancelledError):
            self.broker.unsubscribe(sub)
            raise

    async def _dispatch(
        self,
        request: Dict[str, Any],
        state: Dict[str, Any],
        writer: asyncio.StreamWriter,
    ) -> Optional[Dict[str, Any]]:
        op = request["op"]
        request_id = request.get("id")
        if op == "hello":
            state["tenant"] = request.get("tenant") or state["tenant"]
            return ok(
                "hello",
                request_id,
                protocol=PROTOCOL_VERSION,
                tenant=state["tenant"],
                scenario=self.config.scenario,
                victims=sorted(
                    str(v.key) for v in self.session.scenario.victims
                ) if self.session is not None else [],
            )
        if op == "ping":
            return ok("pong", request_id, ts=time.time())
        if op == "stats":
            return ok("stats", request_id, stats=self.servicez())
        if op == "subscribe":
            if state.get("sub") is not None and not state["sub"].closed:
                return error(
                    "already-subscribed",
                    "one stream per connection; unsubscribe first",
                    request_id,
                )
            sub = self.broker.subscribe(
                state["tenant"], maxsize=self.config.sub_queue
            )
            state["sub"] = sub
            task = asyncio.ensure_future(self._forward(sub, writer))
            self._forwarders.add(task)
            task.add_done_callback(self._forwarders.discard)
            return ok("subscribed", request_id, sub=sub.sub_id)
        if op == "unsubscribe":
            sub = state.get("sub")
            if sub is None:
                return error("not-subscribed", "no active stream", request_id)
            # Terminal notice first (terminal_put is a no-op once closed),
            # so the forwarder drains the queue and exits cleanly.
            sub.terminal_put(
                make_event("unsubscribed", time.time(), 0, sub=sub.sub_id)
            )
            self.broker.unsubscribe(sub)
            state["sub"] = None
            return ok("unsubscribed", request_id, sub=sub.sub_id)
        if op == "query":
            return self._handle_query(
                state["tenant"], request.get("victim"), request_id
            )
        raise ProtocolError("unknown-op", f"unhandled op {op!r}")

    async def _handle_client(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        self._writers.add(writer)
        fd = self._watch(writer.get_extra_info("socket"))
        self.registry.inc("serve.connections.total")
        state: Dict[str, Any] = {"tenant": "anon", "sub": None}
        try:
            while True:
                try:
                    line = await reader.readline()
                except (ValueError, asyncio.LimitOverrunError):
                    writer.write(encode(error(
                        "line-too-long",
                        f"request line exceeds {MAX_LINE_BYTES} bytes",
                    )))
                    await writer.drain()
                    break
                if not line:
                    break
                stripped = line.strip()
                if not stripped:
                    continue
                if stripped.startswith(b"GET ") or stripped.startswith(b"HEAD "):
                    await self._handle_http(
                        stripped.decode("latin-1"), reader, writer
                    )
                    break
                try:
                    request = parse_request(stripped)
                except ProtocolError as exc:
                    self.registry.inc("serve.protocol.errors")
                    writer.write(encode(error(exc.code, exc.detail)))
                    await writer.drain()
                    continue
                response = await self._dispatch(request, state, writer)
                if response is not None:
                    writer.write(encode(response))
                    await writer.drain()
        except (ConnectionError, asyncio.CancelledError):
            pass
        finally:
            sub = state.get("sub")
            if sub is not None:
                self.broker.unsubscribe(sub)
            self._writers.discard(writer)
            # Every way a connection ends comes through here, ahead of
            # any later connection's handler that is dealt the same number.
            self._unwatch(fd)
            writer.close()
            with contextlib.suppress(Exception):
                await writer.wait_closed()

    # -- lifecycle -----------------------------------------------------------

    async def start(
        self,
        unix_path: Optional[str] = None,
        host: Optional[str] = None,
        port: Optional[int] = None,
    ) -> None:
        """Open the listener(s), start episode 0 and the slice loop."""
        if unix_path is None and port is None:
            raise ValueError("need a unix socket path or a TCP port")
        self._running = True
        self._started_s = time.monotonic()
        limit = 2 * MAX_LINE_BYTES
        # A subscriber swarm connects in one burst; the default listen
        # backlog (100) resets the overflow, so size for the swarm.
        backlog = 1024
        if unix_path is not None:
            server = await asyncio.start_unix_server(
                self._handle_client, path=unix_path, limit=limit,
                backlog=backlog,
            )
            self._servers.append(server)
            self.addresses.append(f"unix:{unix_path}")
        if port is not None:
            server = await asyncio.start_server(
                self._handle_client, host or "127.0.0.1", port, limit=limit,
                backlog=backlog,
            )
            self._servers.append(server)
            sock = server.sockets[0].getsockname()
            self.addresses.append(f"tcp:{sock[0]}:{sock[1]}")
        for server in self._servers:
            for sock in server.sockets:
                self._listeners.register(self._watch(sock), select.POLLIN)
        self._start_episode()
        self._pump_task = asyncio.ensure_future(self._pump())

    async def stop(self, reason: str = "requested") -> None:
        """Shut down cleanly: goodbye every stream, close every socket.
        Idempotent."""
        if not self._running:
            await self._stopped.wait()
            return
        self._running = False
        if self._pump_task is not None:
            # The pump exits on the flag after the chunk in progress (or a
            # short idle nap), so this join is bounded.
            with contextlib.suppress(asyncio.CancelledError):
                await self._pump_task
        self.broker.close_all("shutdown", reason=reason)
        if self._forwarders:
            # Every forwarder has a terminal event queued; give them a
            # bounded window to flush it, then cancel stragglers.
            done, pending = await asyncio.wait(
                list(self._forwarders), timeout=5.0
            )
            for task in pending:
                task.cancel()
            if pending:
                await asyncio.wait(list(pending), timeout=1.0)
        for server in self._servers:
            server.close()
            await server.wait_closed()
        self._servers.clear()
        for writer in list(self._writers):
            writer.close()
            with contextlib.suppress(Exception):
                await writer.wait_closed()
        self._writers.clear()
        self._stopped.set()

    def install_signal_handlers(self) -> None:
        """Route SIGTERM/SIGINT to :meth:`run_until_signalled`'s clean stop.

        Call it before :meth:`start`: the listener is visible while
        episode 0 is still being built, and a signal landing in that
        window must wait for the shutdown path, not kill the loop.
        Idempotent.
        """
        if self._stop_requested is not None:
            return
        self._stop_requested = asyncio.Event()
        loop = asyncio.get_running_loop()
        for sig in _STOP_SIGNALS:
            loop.add_signal_handler(sig, self._stop_requested.set)

    async def run_until_signalled(self) -> None:
        """Serve until SIGTERM/SIGINT (the CLI's main loop)."""
        self.install_signal_handlers()
        try:
            await self._stop_requested.wait()
        finally:
            loop = asyncio.get_running_loop()
            for sig in _STOP_SIGNALS:
                loop.remove_signal_handler(sig)
            await self.stop(reason="signal")
