"""serve_queries — the service plane under an open-loop query schedule.

``python -m repro serve pfc-storm --unix SOCK --seed S`` runs as a
subprocess, so the generator does not share its interpreter lock.  The
generator holds two connections: one streaming subscriber and one query
client that sends ``query`` on an **open-loop** 20/s schedule for the
run's seconds, then waits for the next ``episode-end`` and stops the
server with SIGTERM.  Latency runs from each query's *due* time; how late
the generator sent is reported beside it.  No rejection is expected
under the 50/s tenant limit.  (A query's latency is mostly where in a
slice it lands, 0-250 ms, so a median needs hundreds of samples: at 10/s
the p50 of a 12 s run moved 11% between runs from sampling alone.  At
40/s the service saturates — p50 triples and episodes slow by a third —
which is another regime, not a bigger sample.)

``repro.serve``'s own cost is ~1 ms a query while latency is ~100 times
that (the query waits behind sim slices on the one executor thread), so
this is the workload where slicing and queueing changes show, and where
a simulator speed-up shows as shorter slices.
"""

from __future__ import annotations

import asyncio
import os
import shutil
import signal
import subprocess
import sys
import tempfile
import time

import harness
import probes
import stats
from harness import Op, Run

NAME = "serve_queries"
WHY = (
    "resident `repro serve` subprocess, a subscriber and 20/s open-loop "
    "queries: admission, executor wait behind sim slices, broker fan-out"
)

SCENARIO = "pfc-storm"
RATE_PER_S = 20.0
OK_STATUSES = ("diagnosed", "no-trigger")
READY_TIMEOUT_S = 60.0


def plan(seed: int, seconds: float):
    """Query due times, as offsets from the start of the window."""
    return [k / RATE_PER_S for k in range(max(2, int(seconds * RATE_PER_S)))]


class Server:
    """The served program: spawned, awaited until it listens, always reaped."""

    def __init__(self, seed: int) -> None:
        harness.OUT.mkdir(exist_ok=True)
        self.dir = tempfile.mkdtemp(prefix="sock-", dir=harness.OUT)
        # Relative to the checkout root: a unix socket path has ~100 bytes.
        self.sock = os.path.relpath(os.path.join(self.dir, "s"), harness.ROOT)
        self.seed = seed
        self.proc = None
        try:
            self.proc = subprocess.Popen(
                [
                    sys.executable, "-m", "repro", "serve", SCENARIO,
                    "--unix", self.sock, "--seed", str(seed),
                ],
                cwd=harness.ROOT, env=harness.program_env(),
                stdout=subprocess.PIPE, text=True,
            )
            self._await_ready()
        except BaseException:
            self.reap()
            raise

    def _await_ready(self) -> None:
        import select

        ready, _, _ = select.select([self.proc.stdout], [], [], READY_TIMEOUT_S)
        line = self.proc.stdout.readline() if ready else ""
        if not line.startswith("serving "):
            raise RuntimeError(f"server did not start: {line!r}")

    def client_path(self) -> str:
        return os.path.relpath(os.path.join(harness.ROOT, self.sock))

    def stop(self) -> int:
        """SIGTERM and wait: the clean shutdown the workload verifies."""
        self.proc.send_signal(signal.SIGTERM)
        try:
            return self.proc.wait(timeout=20)
        except subprocess.TimeoutExpired:
            return -1

    def reap(self) -> None:
        """Every exit path: SIGTERM -> wait -> SIGKILL, socket dir removed."""
        proc = self.proc
        if proc is not None and proc.poll() is None:
            proc.terminate()
            try:
                proc.wait(timeout=10)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait()
        if proc is not None and proc.stdout is not None:
            proc.stdout.close()
        shutil.rmtree(self.dir, ignore_errors=True)


def setup(seed: int) -> Server:
    """spawn -> `serving ...` line."""
    return Server(seed)


def teardown(state: Server) -> None:
    state.reap()


def measure(run: Run, server: Server) -> None:
    asyncio.run(_drive(run, server))


async def _drive(run: Run, server: Server) -> None:
    from repro.serve import ServeClient, http_get

    rec = run.rec
    rec.enabled = run.trace
    path = server.client_path()
    sub = await ServeClient.connect(unix_path=path, tenant="bench-sub")
    query = await ServeClient.connect(unix_path=path, tenant="bench-query")
    await sub.subscribe()

    lags, episode_ends, terminal = [], [], []

    async def subscriber() -> None:
        while True:
            event = await sub.next_event(timeout=60.0)
            lags.append(max(0.0, time.time() - event["ts"]))
            if event["event"] == "episode-end":
                episode_ends.append((time.perf_counter(), event))
            if event["event"] in ("shutdown", "evicted"):
                terminal.append(event["event"])
                return

    sub_task = asyncio.ensure_future(subscriber())

    if run.trace:
        pings = []
        for _ in range(20):
            t0 = time.perf_counter()
            await query.ping()
            pings.append(time.perf_counter() - t0)
        run.layer["serve.ping_ms_p50"] = stats.median(pings) * 1e3

    due_offsets = plan(run.seed, 1.5 if run.smoke else run.seconds)
    replies = [None] * len(due_offsets)
    sent_at = [0.0] * len(due_offsets)
    done_at = [0.0] * len(due_offsets)

    async def one(k: int) -> None:
        sent_at[k] = time.perf_counter()
        replies[k] = await query.query()
        done_at[k] = time.perf_counter()

    start = time.perf_counter()
    due = [start + offset for offset in due_offsets]
    tasks = []
    for k, due_time in enumerate(due):
        delay = due_time - time.perf_counter()
        if delay > 0:
            await asyncio.sleep(delay)
        tasks.append(asyncio.ensure_future(one(k)))
    await asyncio.gather(*tasks)

    # Close the window on an episode boundary so throughput counts whole
    # episodes.
    seen = len(episode_ends)
    deadline = time.perf_counter() + 60.0
    while len(episode_ends) == seen and time.perf_counter() < deadline:
        await asyncio.sleep(0.002)
    end = episode_ends[-1][0] if episode_ends else time.perf_counter()
    run.wall_s = end - start

    document = (await query.stats())["stats"]
    await query.close()

    if run.trace:
        # Scrapes wait until the query connection is closed: never more
        # than two connections open.
        loop = asyncio.get_running_loop()
        scrapes = []
        for _ in range(3 if run.smoke else 10):
            t0 = time.perf_counter()
            status, _headers, _body = await loop.run_in_executor(
                None, lambda: http_get("/metrics", unix_path=path)
            )
            scrapes.append(time.perf_counter() - t0)
            if status != 200:
                run.notes.append(f"GET /metrics answered {status}")
        run.layer["serve.http_metrics_ms_p50"] = stats.median(scrapes) * 1e3

    exit_code = await asyncio.get_running_loop().run_in_executor(
        None, server.stop
    )
    try:
        await asyncio.wait_for(sub_task, timeout=20.0)
    except asyncio.TimeoutError:
        sub_task.cancel()
    await sub.close()

    _account(
        run, start, end, due, sent_at, done_at, replies, episode_ends,
        lags, terminal, exit_code, document,
    )


def _account(
    run, start, end, due, sent_at, done_at, replies, episode_ends,
    lags, terminal, exit_code, document,
) -> None:
    rec = run.rec
    latency, late = stats.open_loop_latencies(due, sent_at, done_at)
    execs, queues = [], []
    for k, reply in enumerate(replies):
        status = reply.get("status") if reply.get("ok") else reply.get("type")
        ok = bool(reply.get("ok")) and status in OK_STATUSES
        traced = run.trace and k % 2 == 0
        run.ops.append(Op(
            f"{NAME}/query/{k}", "query", 0, traced, latency[k], ok,
            why="" if ok else f"reply {status}: {reply}", work=0,
        ))
        wall_s = float(reply.get("wall_s", 0.0))
        execs.append(wall_s)
        queues.append(latency[k] - wall_s)
        if traced:
            op = rec.add("query", due[k], done_at[k], op_id=f"{NAME}/query/{k}")
            rec.add("send", due[k], sent_at[k], op)
            wait = rec.add("reply", sent_at[k], done_at[k], op)
            # The reply's own wall_s: executor wait plus diagnose_now.
            rec.add("server_exec", done_at[k] - wall_s, done_at[k], wait)

    window = rec.add("round", start, end)
    previous = start
    for index, (when, event) in enumerate(episode_ends):
        if when > end:
            break
        seed = event.get("seed")
        ok = event.get("verdict") == SCENARIO
        run.ops.append(Op(
            f"{NAME}/episode/{SCENARIO}/seed={seed}", "episode", index, False,
            when - previous, ok,
            why="" if ok else f"episode verdict {event.get('verdict')}",
            digest=harness.sim_digest(
                seed, event.get("alerts"), event.get("verdict")
            ),
            counts_latency=False,
        ))
        rec.add("episode", max(previous, start), when, window)
        previous = when

    clean = terminal == ["shutdown"] and exit_code == 0
    run.ops.append(Op(
        f"{NAME}/shutdown", "shutdown", 0, False, 0.0, clean,
        why="" if clean else f"terminal events {terminal}, exit {exit_code}",
        counts_latency=False, work=0,
    ))

    gaps = [
        b[0] - a[0] for a, b in zip(episode_ends, episode_ends[1:])
        if b[0] <= end
    ]
    layer = run.layer
    layer["serve.query_ms_p95"] = stats.percentile(latency, 95) * 1e3
    layer["serve.exec_ms_p50"] = stats.percentile(execs, 50) * 1e3
    layer["serve.exec_ms_p95"] = stats.percentile(execs, 95) * 1e3
    layer["serve.queue_ms_p50"] = stats.percentile(queues, 50) * 1e3
    layer["serve.gen_late_ms_p95"] = stats.percentile(late, 95) * 1e3
    layer["serve.stream_lag_ms_p95"] = stats.percentile(lags, 95) * 1e3
    layer["serve.episode_s_p50"] = stats.median(gaps)
    slices = document.get("slice_wall_s", {})
    layer["serve.slice_wall_ms_p50"] = slices.get("p50", 0.0) * 1e3
    layer["serve.slice_wall_ms_p95"] = slices.get("p95", 0.0) * 1e3
    layer["serve.slices"] = document.get("slices", 0)
    admission = document.get("admission", {})
    layer["serve.rejected"] = admission.get("rejected_rate_limit", 0) + (
        admission.get("rejected_overload", 0)
    )
    stream = document.get("stream", {})
    layer["serve.evicted"] = stream.get("evicted", 0)
    layer["serve.published"] = stream.get("published", 0)
    layer["serve.delivered"] = stream.get("delivered", 0)


def probe(run: Run) -> None:
    """In-process probes of the service plane's own parts."""
    probes.serve_parts(run)
