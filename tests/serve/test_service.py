"""Service integration on a unix socket: protocol, queries, HTTP, lifecycle.

Every test runs a real :class:`DiagnosisService` in-process and talks to
it exactly like an external client would — through the socket.
"""

import asyncio
import gc
import json
import socket
import threading

import pytest

from tests.serve.conftest import wait_episode_complete

from repro.serve import DiagnosisService, ServeClient, http_get
from repro.serve import service as service_module
from repro.serve.protocol import encode
from repro.sim import Network


class TestJsonProtocol:
    def test_hello_binds_tenant_and_lists_victims(self, serving):
        async def main():
            async with serving() as (service, path):
                client = await ServeClient.connect(unix_path=path)
                reply = await client.hello("team-a")
                assert reply["ok"] is True
                assert reply["tenant"] == "team-a"
                assert reply["protocol"] == 1
                assert reply["victims"]  # pfc-storm has victims
                await client.close()

        asyncio.run(main())

    def test_ping_and_stats(self, serving):
        async def main():
            async with serving() as (service, path):
                client = await ServeClient.connect(unix_path=path)
                pong = await client.ping()
                assert pong["type"] == "pong"
                stats = await client.stats()
                doc = stats["stats"]
                assert doc["scenario"] == "pfc-storm"
                assert doc["connections"] == 1
                assert "admission" in doc and "stream" in doc
                await client.close()

        asyncio.run(main())

    def test_malformed_requests_get_errors_not_disconnects(self, serving):
        async def main():
            async with serving() as (service, path):
                reader, writer = await asyncio.open_unix_connection(path)
                writer.write(b"this is not json\n")
                await writer.drain()
                reply = json.loads(await reader.readline())
                assert reply["type"] == "error"
                assert reply["error"] == "bad-json"
                writer.write(encode({"op": "warp-drive"}))
                await writer.drain()
                reply = json.loads(await reader.readline())
                assert reply["error"] == "unknown-op"
                # The connection survived both errors.
                writer.write(encode({"op": "ping", "id": 1}))
                await writer.drain()
                reply = json.loads(await reader.readline())
                assert reply["type"] == "pong" and reply["id"] == 1
                writer.close()
                await writer.wait_closed()

        asyncio.run(main())

    def test_protocol_errors_counted(self, serving):
        async def main():
            async with serving() as (service, path):
                reader, writer = await asyncio.open_unix_connection(path)
                writer.write(b"{broken\n")
                await writer.drain()
                await reader.readline()
                counters = service.registry.to_dict()["counters"]
                assert counters["serve.protocol.errors"] == 1
                writer.close()
                await writer.wait_closed()

        asyncio.run(main())


class TestStreaming:
    def test_subscriber_sees_feed_in_seq_order(self, serving):
        async def main():
            async with serving() as (service, path):
                client = await ServeClient.connect(unix_path=path, tenant="t")
                reply = await client.subscribe()
                assert reply["type"] == "subscribed"
                await wait_episode_complete(service)
                events = []
                try:
                    while True:
                        events.append(await client.next_event(timeout=1.0))
                except asyncio.TimeoutError:
                    pass
                kinds = {e["event"] for e in events}
                # pfc-storm raises monitor alerts and records an incident.
                assert "alert" in kinds
                assert "incident" in kinds
                assert "episode-end" in kinds
                seqs = [e["seq"] for e in events]
                assert seqs == sorted(seqs)
                await client.close()

        asyncio.run(main())

    def test_double_subscribe_rejected(self, serving):
        async def main():
            async with serving() as (service, path):
                client = await ServeClient.connect(unix_path=path)
                await client.subscribe()
                reply = await client.subscribe()
                assert reply["type"] == "error"
                assert reply["error"] == "already-subscribed"
                await client.close()

        asyncio.run(main())

    def test_unsubscribe_ends_stream_with_terminal_event(self, serving):
        async def main():
            async with serving() as (service, path):
                client = await ServeClient.connect(unix_path=path)
                await client.subscribe()
                reply = await client.unsubscribe()
                assert reply["type"] == "unsubscribed"
                # The stream's last event is the terminal notice.
                terminal = None
                try:
                    while True:
                        terminal = await client.next_event(timeout=1.0)
                        if terminal["event"] == "unsubscribed":
                            break
                except asyncio.TimeoutError:
                    pass
                assert terminal is not None
                assert terminal["event"] == "unsubscribed"
                assert service.broker.active == 0
                await client.close()

        asyncio.run(main())

    def test_slow_consumer_evicted_with_notice(self, serving):
        async def main():
            async with serving(sub_queue=2) as (service, path):
                reader, writer = await asyncio.open_unix_connection(path)
                writer.write(encode({"op": "subscribe", "id": 1}))
                await writer.drain()
                await reader.readline()  # subscribed ack
                # Never read another byte: the forwarder blocks on the
                # transport's high-water mark, the bounded queue fills and
                # the broker evicts.  Publish enough to overflow both.
                for n in range(5000):
                    service.broker.publish("alert", n=n)
                    if service.broker.active == 0:
                        break
                    if n % 100 == 0:
                        await asyncio.sleep(0)  # let the forwarder run
                assert service.broker.active == 0
                counters = service.registry.to_dict()["counters"]
                assert counters["serve.stream.evicted"] == 1
                # Now drain the socket: the stream ends with the notice.
                terminal = None
                while terminal is None:
                    line = await asyncio.wait_for(reader.readline(), 10.0)
                    assert line, "stream ended without an eviction notice"
                    message = json.loads(line)
                    if message.get("event") == "evicted":
                        terminal = message
                assert terminal["reason"] == "slow-consumer"
                assert terminal["dropped"] >= 1
                writer.close()
                await writer.wait_closed()

        asyncio.run(main())


class TestQueries:
    def test_query_returns_diagnosis_after_trigger(self, serving):
        async def main():
            async with serving() as (service, path):
                await wait_episode_complete(service)
                client = await ServeClient.connect(unix_path=path, tenant="t")
                reply = await client.query()
                assert reply["ok"] is True
                assert reply["status"] == "diagnosed"
                assert reply["anomaly"] == "pfc-storm"
                assert reply["confidence"] == "full"
                assert "pfc-storm" in reply["diagnosis"]
                assert reply["trigger_ns"] > 0
                # Where the server's share went: the diagnosis itself,
                # inside the handling of the request end to end.
                assert "wait_s" not in reply
                assert 0 < reply["exec_s"] <= reply["wall_s"]
                histograms = service.registry.to_dict()["histograms"]
                for name in ("wall_s", "exec_s"):
                    assert histograms[f"serve.query.{name}"]["count"] == 1
                await client.close()

        asyncio.run(main())

    def test_query_unknown_victim(self, serving):
        async def main():
            async with serving() as (service, path):
                client = await ServeClient.connect(unix_path=path)
                reply = await client.query(victim="10.9.9.9:1->10.9.9.8:2/17")
                assert reply["ok"] is True
                assert reply["status"] == "unknown-victim"
                assert reply["victims"]  # tells the caller what exists
                await client.close()

        asyncio.run(main())

    def test_rate_limited_tenant_gets_explicit_rejection(self, serving):
        async def main():
            async with serving(
                tenant_rate_per_s=0.001, tenant_burst=1.0
            ) as (service, path):
                client = await ServeClient.connect(unix_path=path, tenant="t")
                first = await client.query()
                assert first["type"] != "rejected"
                second = await client.query()
                assert second["ok"] is False
                assert second["type"] == "rejected"
                assert second["reason"] == "rate-limit"
                assert second["retry_after_s"] > 0
                # Another tenant is unaffected.
                other = await ServeClient.connect(
                    unix_path=path, tenant="other"
                )
                reply = await other.query()
                assert reply["type"] != "rejected"
                await client.close()
                await other.close()

        asyncio.run(main())


async def _mid_episode(service, path, request):
    """Send ``request`` at half the episode's sim time; returns the open
    ``(reader, writer)``.

    The send is a sim event: a blocking unix ``connect`` the listener's
    backlog accepts while the chunk runs, then ``sendall`` — so the request
    is waiting at a chosen sim instant however the host schedules threads.
    (A client on the service's own loop could not even send before the
    chunk that starves it ended; one on a thread can miss the episode.)"""
    sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
    sent = asyncio.get_running_loop().create_future()

    def send():
        sock.connect(path)
        sock.sendall(request)
        sent.set_result(None)

    session = service.session
    session.net.sim.schedule(session.duration_ns // 2, send)
    await sent
    return await asyncio.open_unix_connection(sock=sock)


class TestPreemptibleSlices:
    def test_query_preempts_the_slice_in_flight(self, serving, monkeypatch):
        """One slice spans the whole episode (~0.3 s of host time) and so
        would one chunk: only somebody waiting on a socket ends it early.
        A query sent meanwhile is answered from inside it, not after it."""
        monkeypatch.setattr(service_module, "CHUNK_EVENTS", 10**9)

        async def main():
            async with serving(slice_us=1e6) as (service, path):
                duration_ns = service.session.duration_ns
                assert duration_ns < 1e6 * 1000  # one slice would cover it
                reader, writer = await _mid_episode(
                    service, path, encode({"op": "query"})
                )
                reply = json.loads(await reader.readline())
                writer.close()
                await writer.wait_closed()
                assert reply["ok"] is True
                assert duration_ns // 2 <= reply["sim_ns"] < duration_ns

        asyncio.run(main())

    def test_scrape_preempts_too(self, serving, monkeypatch):
        monkeypatch.setattr(service_module, "CHUNK_EVENTS", 10**9)

        async def main():
            async with serving(slice_us=1e6) as (service, path):
                reader, writer = await _mid_episode(
                    service, path,
                    b"GET /servicez HTTP/1.1\r\nHost: repro\r\n"
                    b"Connection: close\r\n\r\n",
                )
                head, _, body = (await reader.read()).partition(b"\r\n\r\n")
                writer.close()
                await writer.wait_closed()
                assert head.split()[1] == b"200"
                doc = json.loads(body)
                assert 0 < doc["sim_ns"] < doc["sim_duration_ns"]
                # Every chunk so far ended for this scrape, none on budget.
                assert 1 <= doc["chunks_preempted"] == doc["chunks"]

        asyncio.run(main())

    def test_request_readable_at_chunk_end_beats_the_next_chunk(self, serving):
        """The loop gets enough passes after a chunk: a request that
        arrived while the chunk ran is read, answered and written before
        the next chunk starts (one pass too few costs it a whole chunk)."""

        async def main():
            async with serving(slice_us=1e6) as (service, path):
                reader, writer = await asyncio.open_unix_connection(path)
                writer.write(encode({"op": "ping"}))
                await reader.readline()  # the handler task is up and waiting
                session = service.session
                advance, chunks, sent = session.advance, [0], {}

                def sending_advance(until_ns, *budget):
                    now_ns = advance(until_ns, *budget)
                    chunks[0] += 1
                    if chunks[0] % 4 == 0 and len(sent) < 5:
                        # Lands in the server's socket buffer mid-chunk,
                        # as far as the loop can tell.
                        writer.write(encode({"op": "query", "id": chunks[0]}))
                        sent[chunks[0]] = now_ns
                    return now_ns

                session.advance = sending_advance
                for _ in range(5):
                    reply = json.loads(await reader.readline())
                    # Answered at the instant the chunk it arrived in ended.
                    assert reply["sim_ns"] == sent[reply["id"]], reply
                writer.close()
                await writer.wait_closed()

        asyncio.run(main())

    def test_idle_server_runs_exactly_the_configured_slices(self, serving):
        """ceil(duration / slice) slices, however they split into chunks."""

        async def main():
            async with serving(slice_us=333.0) as (service, path):
                duration_ns = service.session.duration_ns
                await wait_episode_complete(service)
                counters = service.registry.to_dict()["counters"]
                assert counters["serve.slices"] == -(-duration_ns // 333_000)
                # Nobody connected, so nothing cut a chunk short.
                assert counters["serve.chunks"] >= counters["serve.slices"]
                assert "serve.chunks.preempted" not in counters

        asyncio.run(main())


class TestPollSetStaysHonest:
    """A descriptor nobody will read again must not hold ``poll(0)`` true:
    every chunk would silently shrink to one poll interval."""

    def test_vanished_clients_leave_no_readable_descriptor(self, serving):
        """50 clients connect and vanish without a goodbye; the episodes
        that follow are cut by nothing and keep their slice count."""
        episodes = 3

        async def main():
            async with serving(
                slice_us=333.0, episodes=episodes
            ) as (service, path):
                slices_per_episode = -(-service.session.duration_ns // 333_000)
                for n in range(50):
                    sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
                    sock.connect(path)
                    if n % 2:
                        sock.sendall(b'{"op": "pi')  # half a request, too
                    sock.close()
                counter = service.registry.counter_value
                while (
                    counter("serve.connections.total") < 50
                    or service.servicez()["connections"]
                ):
                    await asyncio.sleep(0.005)
                preempted = counter("serve.chunks.preempted")
                assert preempted >= 1  # the swarm did cut chunks
                done = service.episodes_completed
                assert done < episodes - 1  # a whole idle episode is ahead
                while service.episodes_completed < episodes:
                    await asyncio.sleep(0.02)
                assert counter("serve.chunks.preempted") == preempted
                assert counter("serve.slices") == episodes * slices_per_episode

        asyncio.run(main())

    def test_dead_descriptor_ends_one_chunk_then_leaves_the_set(self):
        service = DiagnosisService()
        hung_up, peer = socket.socketpair()
        closed, other = socket.socketpair()
        try:
            assert service._request_waiting() is False
            service._watch(hung_up)
            fd = service._watch(closed)
            assert service._request_waiting() is False
            peer.close()    # POLLHUP
            closed.close()  # POLLNVAL
            assert service._request_waiting() is True
            assert service._request_waiting() is False
            service._unwatch(fd)  # the handler's own exit: already gone
            assert service.registry.counter_value(
                "serve.chunks.preempted"
            ) == 1
        finally:
            for sock in (hung_up, peer, closed, other):
                sock.close()

    def test_readable_descriptor_stays_until_it_is_read(self):
        service = DiagnosisService()
        ours, theirs = socket.socketpair()
        try:
            service._watch(ours)
            theirs.sendall(b"x")
            assert service._request_waiting() is True
            assert service._request_waiting() is True  # still unread
            ours.recv(1)
            assert service._request_waiting() is False
        finally:
            ours.close()
            theirs.close()


class TestHttpEndpoints:
    def _get(self, path, sock):
        return http_get(path, unix_path=sock)

    def test_healthz(self, serving):
        async def main():
            async with serving() as (service, path):
                loop = asyncio.get_running_loop()
                status, _, body = await loop.run_in_executor(
                    None, self._get, "/healthz", path
                )
                assert status == 200
                assert body == "ok\n"

        asyncio.run(main())

    def test_head_carries_the_headers_and_no_body(self, serving):
        async def main():
            async with serving() as (service, path):
                reader, writer = await asyncio.open_unix_connection(path)
                writer.write(b"HEAD /healthz HTTP/1.1\r\nHost: x\r\n\r\n")
                raw = await asyncio.wait_for(reader.read(), 10.0)
                writer.close()
                await writer.wait_closed()
                head, sep, body = raw.partition(b"\r\n\r\n")
                assert head.startswith(b"HTTP/1.1 200 OK")
                assert b"Content-Length: 3" in head  # what GET would send
                assert sep and body == b""

        asyncio.run(main())

    def test_servicez_is_json_with_counters(self, serving):
        async def main():
            async with serving() as (service, path):
                loop = asyncio.get_running_loop()
                status, headers, body = await loop.run_in_executor(
                    None, self._get, "/servicez", path
                )
                assert status == 200
                assert headers["content-type"] == "application/json"
                doc = json.loads(body)
                assert doc["scenario"] == "pfc-storm"
                assert doc["protocol"] == 1
                assert doc["uptime_s"] >= 0
                assert "admission" in doc
                assert "tenants" in doc
                # The query-latency decomposition sits beside the totals:
                # a chunk to wait out, then the handling itself.
                for key in ("query_wall_s", "query_exec_s", "chunk_wall_s"):
                    assert key in doc
                # ... and how many chunks a request cut short (this
                # scrape's own connection and request line, at least).
                assert 1 <= doc["chunks_preempted"] <= doc["chunks"]
                assert "query_wait_s" not in doc
                assert "slices_preempted" not in doc

        asyncio.run(main())

    def test_every_scrape_refreshes_uptime_and_staleness(self, serving):
        def gauge(body, name):
            for line in body.splitlines():
                if line.startswith(name + " "):
                    return float(line.split()[1])
            raise AssertionError(f"{name} missing from the exposition")

        async def main():
            async with serving() as (service, path):
                loop = asyncio.get_running_loop()
                # No /servicez hit first: /metrics sets the gauges itself.
                _, _, first = await loop.run_in_executor(
                    None, self._get, "/metrics", path
                )
                assert gauge(first, "repro_serve_feed_staleness_s") >= 0
                assert gauge(first, "repro_serve_rss_mb") > 0
                await asyncio.sleep(0.05)
                _, _, second = await loop.run_in_executor(
                    None, self._get, "/metrics", path
                )
                assert gauge(second, "repro_serve_uptime_s") >= (
                    gauge(first, "repro_serve_uptime_s") + 0.05
                )

        asyncio.run(main())

    def test_metrics_jsonl_html_and_404(self, serving):
        async def main():
            async with serving() as (service, path):
                await wait_episode_complete(service)
                loop = asyncio.get_running_loop()
                status, headers, body = await loop.run_in_executor(
                    None, self._get, "/metrics", path
                )
                assert status == 200
                assert body.startswith("# HELP")
                assert "repro_serve_" in body
                status, _, body = await loop.run_in_executor(
                    None, self._get, "/jsonl", path
                )
                assert status == 200
                assert all(
                    json.loads(line) for line in body.splitlines() if line
                )
                status, _, body = await loop.run_in_executor(
                    None, self._get, "/html", path
                )
                assert status == 200
                assert body.lstrip().startswith("<!DOCTYPE html>")
                status, _, _ = await loop.run_in_executor(
                    None, self._get, "/nope", path
                )
                assert status == 404

        asyncio.run(main())

    def test_failed_unix_connect_closes_the_socket(self, tmp_path, monkeypatch):
        made = []

        class Recording(socket.socket):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                made.append(self)

        monkeypatch.setattr(socket, "socket", Recording)
        with pytest.raises(FileNotFoundError):
            http_get("/healthz", unix_path=str(tmp_path / "missing.sock"))
        assert len(made) == 1
        assert made[0].fileno() == -1  # closed, not left to the collector


class TestLifecycle:
    def test_stop_leaves_no_threads_behind(self, serving):
        """The service never starts a thread: the count is the same before
        start(), while serving a stream and a query, and after stop()."""

        async def main():
            before = threading.active_count()
            async with serving() as (service, path):
                client = await ServeClient.connect(unix_path=path)
                await client.subscribe()
                assert (await client.query())["ok"] is True
                await asyncio.sleep(0.1)
                assert threading.active_count() == before
                # stop() runs in the fixture's finally; close the client
                # here so its reader task dies inside the loop.
                await client.close()
            assert threading.active_count() == before

        asyncio.run(main())

    def test_stop_is_idempotent_and_notifies_streams(self, serving):
        async def main():
            async with serving() as (service, path):
                client = await ServeClient.connect(unix_path=path)
                await client.subscribe()
                await service.stop(reason="test")
                await service.stop(reason="again")  # second stop: no-op
                terminal = None
                try:
                    while True:
                        terminal = await client.next_event(timeout=2.0)
                        if terminal["event"] == "shutdown":
                            break
                except asyncio.TimeoutError:
                    pass
                assert terminal is not None
                assert terminal["event"] == "shutdown"
                assert terminal["reason"] == "test"
                await client.close()

        asyncio.run(main())

    def test_multi_episode_reseeds(self, serving):
        # Episode 0's episode-start predates any subscriber; the stream
        # shows both episode-ends and episode 1's reseeded start.
        async def main():
            async with serving(episodes=2, slice_us=1000.0) as (service, path):
                client = await ServeClient.connect(unix_path=path)
                await client.subscribe()
                ends, start1 = [], None
                while len(ends) < 2:
                    event = await client.next_event(timeout=60.0)
                    if event["event"] == "episode-end":
                        ends.append(event)
                    elif event["event"] == "episode-start":
                        start1 = event
                assert [e["episode"] for e in ends] == [0, 1]
                assert start1 is not None
                assert start1["episode"] == 1
                assert start1["seed"] == service.config.seed + 1
                assert ends[1]["seed"] == ends[0]["seed"] + 1
                assert service.episodes_completed == 2
                await client.close()

        asyncio.run(main())

    def test_resident_service_holds_one_fabric(self, serving):
        """Steady state is the live episode's fabric and nothing else: each
        finished one is let go before the next is built and reclaimed as it
        attaches — with no collection asked for here."""
        def fabrics():
            return [o for o in gc.get_objects() if isinstance(o, Network)]

        async def main():
            # Whatever earlier tests still hold is not this service's.
            before = {id(net) for net in fabrics()}
            async with serving(
                scenario="out-of-loop-deadlock", episodes=5, slice_us=1000.0
            ) as (service, path):
                client = await ServeClient.connect(unix_path=path)
                await client.subscribe()
                ends = 0
                while ends < 5:
                    event = await client.next_event(timeout=60.0)
                    ends += event["event"] == "episode-end"
                await client.close()
                held = [net for net in fabrics() if id(net) not in before]
                assert len(held) <= 1
                # The last episode stays readable (test_differential's
                # contract); only a *next* episode lets go of it.
                assert service.last_result.primary_outcome() is not None
                assert service.servicez()["rss_mb"] > 0

        asyncio.run(main())
