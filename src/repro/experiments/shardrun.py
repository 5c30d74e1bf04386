"""Sharded scenario execution: one fabric, many worker processes.

:func:`run_scenario_sharded` partitions a scenario's topology into pods
(:func:`repro.topology.partition.partition_topology`), forks one worker
per shard, and advances all shards in lockstep epochs under a
conservative-lookahead barrier:

- every worker owns the switches and hosts of its shard and simulates
  them with a full private pipeline (one ``FabricSession``: telemetry
  deployment, collector, polling engine, detection agent);
- frames addressed to a remote node are flattened into the shard's
  outbox (:class:`repro.sim.network.Network`) instead of its event loop;
- at each barrier the orchestrator grants a new epoch horizon
  ``T' = min(duration, m + L - 1)`` where ``m`` is the earliest pending
  work anywhere (local events or in-flight frames) and ``L`` is the
  minimum cut-link latency.  No frame sent inside an epoch can arrive
  within it (delivery delay >= link latency + serialization), so workers
  never see a remote frame late.

Cross-shard frames ride the barrier pipes, pickled, in per-destination
batches — the one carrier that runs on every platform.

One model, not a second runner: a worker is a
:class:`~repro.experiments.runner.FabricSession` on its shard view (the
attach path the in-process run takes, so same-timestamp timer
tie-breaking cannot fork), and the parent is the barrier, a sum of the
workers' :class:`~repro.experiments.runner.SessionTotals`, and the shared
:func:`~repro.experiments.runner.account_run` epilogue — so the analyzer
half (report selection through verdict) runs once, in the parent.

Worker supervision: a barrier watchdog (``--shard-timeout``, default
60 s) bounds every wait on a worker.  A hung or crashed worker trips the
watchdog; the parent then terminates the fleet on every exit path
(``finally`` + ``atexit`` + SIGTERM) and reruns the scenario once on the
single-process engine — byte-identical result, just slower — recording
what happened in ``PerfStats.supervision``.

Determinism: deliveries are ordered by the engine's canonical
``(send time, trigger schedule time, source, per-source seq)`` key in a
per-timestamp delivery band, never by schedule-call order — so merging
frames from another process reproduces the exact per-node event order of
the single-process engine, and the merged diagnosis (and canonicalized
obs trace, see :mod:`repro.obs.canon`) is byte-identical to ``shards=1``.

What the engine takes is one rule, :func:`serial_reason`.  Byte-identity
makes the serial engine an exact substitute for any config, so the only
reason to shard a run is wall clock — and the modes that need
fabric-global mutable state (fault injection, retry, the fabric monitor,
per-packet sim tracing, collect-everywhere baselines) measured slower or
no faster sharded.  They run on :func:`run_scenario` with
``PerfStats.supervision == {"serial_reason": ...}``; the barrier carries
the horizon and frames, nothing else.
"""

from __future__ import annotations

import atexit
import os
import signal
import threading
import time
import traceback
from typing import Any, Callable, Dict, List, Optional, Sequence, Set, Tuple

from ..obs import (
    Event,
    MetricsRegistry,
    PipelineObs,
    Span,
    StageProfile,
    Tracer,
    merge_stage_dicts,
)
from ..obs.trace import NullSink
from ..sim.packet import FlowKey
from ..sim.shard import shard_build_context
from ..topology.partition import ShardPlan, partition_topology
from .perfstats import global_cache_counters
from .supervise import (
    ShardCrashed,
    ShardTimeout,
    ShardWorkerError,
    fork_context,
    resolve_timeout,
)
from .runner import (
    FabricSession,
    RunConfig,
    RunResult,
    ScenarioSpec,
    SessionTotals,
    account_run,
    cycle_sweeps_off,
    run_scenario,
)

# Chaos-test hook: when set, called as ``fn(shard_id, epoch_no)`` at the
# top of every epoch inside each worker (inherited through fork).  A
# returned action string simulates a failure mode: ``"sigkill"`` kills
# the worker outright, ``"hang"`` wedges it past any sane watchdog
# deadline.  ``None`` / unknown = no-op.
_TEST_WORKER_ABORT: Optional[Callable[[int, int], Optional[str]]] = None


class ShardPipelineObs(PipelineObs):
    """Worker-side observability that remembers what it could not anchor.

    A worker has no scenario span (the parent owns the root) and only its
    own victims' diagnosis/round spans; records for a *remote* victim fall
    back to no parent.  Each fallback is noted as ``(record id, victim)``
    so the merge step can re-anchor the record under the victim's round
    span — reproducing exactly the parent the single-process
    :meth:`PipelineObs._anchor` would have chosen.
    """

    def __init__(self, tracer: Tracer, metrics: MetricsRegistry) -> None:
        super().__init__(tracer, metrics)
        self.fallbacks: List[Tuple[int, str]] = []

    def _note(self, victim) -> None:
        if (
            victim is not None
            and self._round.get(victim) is None
            and self._diagnosis.get(victim) is None
        ):
            # The next record created gets id ``tracer._next_id``.
            self.fallbacks.append((self.tracer._next_id, str(victim)))

    def on_polling_mirror(self, switch, victim, time_ns):
        self._note(victim)
        super().on_polling_mirror(switch, victim, time_ns)

    def on_polling_forward(self, switch, victim, time_ns, fanout):
        self._note(victim)
        super().on_polling_forward(switch, victim, time_ns, fanout)

    def on_polling_suppressed(self, switch, victim, time_ns, kind):
        self._note(victim)
        super().on_polling_suppressed(switch, victim, time_ns, kind)

    def on_polling_lost(self, switch, victim, time_ns):
        self._note(victim)
        super().on_polling_lost(switch, victim, time_ns)

    def on_collection_shared(self, switch, victim, time_ns):
        self._note(victim)
        super().on_collection_shared(switch, victim, time_ns)

    def on_epoch_read(self, switch, victim, start_ns, end_ns, epochs, faults=()):
        self._note(victim)
        super().on_epoch_read(switch, victim, start_ns, end_ns, epochs, faults)

    def on_report(self, fate, switch, victim, time_ns, faults=(), delay_ns=0):
        self._note(victim)
        super().on_report(fate, switch, victim, time_ns, faults, delay_ns)


    def payload(self) -> Dict[str, Any]:
        """This worker's trace records plus what :func:`_merge_obs` needs
        to renumber and re-anchor them in the parent."""
        tracer = self.tracer
        return {
            "spans": [s.to_record() for s in tracer.spans],
            "events": [e.to_record() for e in tracer.events],
            "open_ids": [s.span_id for s in tracer.open_spans()],
            "diag_spans": {v: s.span_id for v, s in self._diagnosis.items()},
            "round_spans": {v: s.span_id for v, s in self._round.items()},
            "round_no": dict(self._round_no),
            "fallbacks": list(self.fallbacks),
            "next_id": tracer._next_id,
        }


def serial_reason(config: RunConfig, plan: ShardPlan) -> Optional[str]:
    """What keeps this run off the shard engine, or ``None`` if it shards.

    The one rule for what the engine takes.  Each named mode holds
    fabric-global mutable state that would have to ride the barrier; the
    serial engine is byte-identical by contract, so they run there.
    """
    if plan.shards <= 1:
        return "the partition is a single shard"
    if config.faults is not None and config.faults.enabled:
        return "fault injection"
    if config.retry is not None:
        return "a retry policy"
    if config.monitor is not None and config.monitor.enabled:
        return "the fabric monitor"
    if config.obs is not None and config.obs.sim_events:
        return "per-packet sim tracing"
    if config.system.collects_everywhere:
        return "a collect-everywhere system"
    return None


# ---------------------------------------------------------------------------
# Worker
# ---------------------------------------------------------------------------


def _shard_worker_main(
    conn, spec: ScenarioSpec, config: RunConfig, plan: ShardPlan, shard_id: int
) -> None:
    """One shard's process: a session on the shard view, obeying barriers."""
    try:
        with shard_build_context(plan.assignment, shard_id):
            scenario = spec.build()
        obs: Optional[ShardPipelineObs] = None
        if config.obs is not None and config.obs.trace:
            obs = ShardPipelineObs(Tracer(NullSink()), MetricsRegistry())
        session = FabricSession(scenario, config, obs=obs)
        net = session.net
        profile = session.profile

        duration = scenario.duration_ns
        node_shard = plan.assignment

        busy_s = 0.0
        while True:
            msg = conn.recv()
            if msg[0] == "finish":
                totals = session.totals()
                totals.obs = obs.payload() if obs is not None else None
                totals.registry = session.metrics.to_dict()["counters"]
                totals.busy_s = busy_s
                totals.stages = profile.to_dict()
                conn.send(("final", totals))
                conn.close()
                return
            _, epoch_no, until, frames = msg
            if _TEST_WORKER_ABORT is not None:
                action = _TEST_WORKER_ABORT(shard_id, epoch_no)
                if action == "sigkill":
                    os.kill(os.getpid(), signal.SIGKILL)
                elif action == "hang":
                    time.sleep(3600)
            # CPU time, not wall time: on a machine with fewer cores
            # than shards the workers time-share, and wall time would
            # charge each shard for its siblings' slices.  With one
            # core per shard the two are equal.
            t0 = time.process_time()
            with profile.stage("shard_run"), cycle_sweeps_off():
                net.deliver_wire_batch(frames)
                net.run(until)
            busy_s += time.process_time() - t0
            outbox = net.outbox
            net.outbox = []
            # Batch the outbox per destination shard here, not in the
            # parent.  ``out_min`` covers *every* frame — arrivals past
            # the horizon still bound the next epoch grant.
            out_min: Optional[int] = None
            frames_out: Dict[int, List[tuple]] = {}
            if outbox:
                with profile.stage("shard_transport"):
                    for frame in outbox:
                        arrival = frame[0]
                        if out_min is None or arrival < out_min:
                            out_min = arrival
                        if arrival <= duration:
                            frames_out.setdefault(
                                node_shard[frame[1]], []
                            ).append(frame)
            conn.send(("done", frames_out, net.sim.peek_next_time(), out_min))
    except Exception:  # pragma: no cover - shipped to parent for re-raise
        try:
            conn.send(("error", traceback.format_exc()))
        except Exception:
            pass


# ---------------------------------------------------------------------------
# Orchestrator
# ---------------------------------------------------------------------------


def _merge_obs(parent_obs: PipelineObs, payloads: List[Dict[str, Any]]) -> None:
    """Fold worker trace records into the parent tracer, re-anchored.

    Worker record ids are offset into one global sequence; spans and
    events that a worker could only anchor to its (absent) root are
    re-parented under the merged scenario span, and the victim-scoped
    fallbacks noted by :class:`ShardPipelineObs` are re-anchored under
    the victim's polling round (or diagnosis) span open at their
    timestamp — the parent single-process ``_anchor`` would have chosen.
    Open diagnosis/round spans are revived into the parent's bookkeeping
    so the analyzer phase closes them exactly as ``run_scenario`` does.
    """
    tracer = parent_obs.tracer
    scenario_span = parent_obs.scenario_span
    assert scenario_span is not None
    next_id = tracer._next_id
    spans_by_id: Dict[int, Span] = {scenario_span.span_id: scenario_span}
    events_by_id: Dict[int, Event] = {}
    fallbacks: List[Tuple[int, str]] = []

    for payload in payloads:
        offset = next_id
        next_id += payload["next_id"]
        open_ids = set(payload["open_ids"])
        for rec in payload["spans"]:
            parent_id = rec["parent"]
            span = Span(
                rec["id"] + offset,
                parent_id + offset if parent_id is not None else scenario_span.span_id,
                rec["kind"],
                rec["name"],
                rec["start_ns"],
                dict(rec["attrs"]),
            )
            if rec["id"] not in open_ids:
                span.end_ns = rec["end_ns"]
            spans_by_id[span.span_id] = span
            tracer.spans.append(span)
            if rec["id"] in open_ids:
                tracer._open[span.span_id] = span
        for rec in payload["events"]:
            span_id = rec["span"]
            event = Event(
                rec["id"] + offset,
                span_id + offset if span_id is not None else scenario_span.span_id,
                rec["kind"],
                rec["name"],
                rec["time_ns"],
                dict(rec["attrs"]),
            )
            events_by_id[event.event_id] = event
            tracer.events.append(event)
        fallbacks.extend((rid + offset, vstr) for rid, vstr in payload["fallbacks"])
        for victim, span_id in payload["diag_spans"].items():
            parent_obs._diagnosis[victim] = spans_by_id[span_id + offset]
        for victim, span_id in payload["round_spans"].items():
            parent_obs._round[victim] = spans_by_id[span_id + offset]
        for victim, number in payload["round_no"].items():
            parent_obs._round_no[victim] = number

    tracer._next_id = next_id
    tracer.spans.sort(key=lambda s: s.span_id)
    tracer.events.sort(key=lambda e: e.event_id)

    # Victim name -> its diagnosis span and (start-ordered) round spans.
    diag_of: Dict[str, Span] = {}
    rounds_of: Dict[str, List[Span]] = {}
    for span in tracer.spans:
        if span.kind == "diagnosis":
            diag_of[span.attrs.get("victim", span.name)] = span
    for span in tracer.spans:
        if span.kind == "polling_round":
            parent = spans_by_id.get(span.parent_id)
            if parent is not None and parent.kind == "diagnosis":
                victim = parent.attrs.get("victim", parent.name)
                rounds_of.setdefault(victim, []).append(span)
    for spans in rounds_of.values():
        spans.sort(key=lambda s: (s.start_ns, s.span_id))

    for rid, victim in fallbacks:
        span = spans_by_id.get(rid)
        event = events_by_id.get(rid)
        at_ns = span.start_ns if span is not None else event.time_ns
        candidates = [
            r for r in rounds_of.get(victim, []) if r.start_ns <= at_ns
        ]
        target: Optional[Span] = candidates[-1] if candidates else None
        if target is None:
            diagnosis = diag_of.get(victim)
            if diagnosis is not None and diagnosis.start_ns <= at_ns:
                target = diagnosis
        if target is None:
            target = scenario_span
        if span is not None:
            span.parent_id = target.span_id
        else:
            event.span_id = target.span_id


def _add_counters(into: Dict[str, Any], counters: Dict[str, Any]) -> None:
    """Key-wise ``into += counters`` (nested hit/miss dicts recurse)."""
    for key, value in counters.items():
        if isinstance(value, dict):
            _add_counters(into.setdefault(key, {}), value)
        else:
            into[key] = into.get(key, 0) + value


def _sum_totals(parts: Sequence[SessionTotals]) -> SessionTotals:
    """The fabric's totals from its shards'.

    Every entity is homed on exactly one shard, so counters add.  The
    exceptions are the canonical merges — reports and triggers sort into
    one fabric-wide order, trace sets union — and the two figures that
    take the max: the peak queue depth, and ``busy_s`` (the slowest shard
    is the critical path).
    """
    traced: Optional[Dict[FlowKey, Set[str]]] = None
    summed: Dict[str, Dict[str, Any]] = {
        name: {}
        for name in ("collection", "polling", "agent", "sim", "caches", "registry")
    }
    for part in parts:
        if part.traced is not None:
            traced = traced if traced is not None else {}
            for victim, switches in part.traced.items():
                traced.setdefault(victim, set()).update(switches)
        for name, into in summed.items():
            _add_counters(into, getattr(part, name))
    summed["sim"]["max_pending_entries"] = max(
        part.sim["max_pending_entries"] for part in parts
    )
    return SessionTotals(
        reports=sorted(
            (r for part in parts for r in part.reports),
            key=lambda r: (r.collect_time, r.switch),
        ),
        triggers=sorted(
            (t for part in parts for t in part.triggers),
            key=lambda t: (t.time_ns, str(t.victim)),
        ),
        traced=traced,
        data_pkt_hops=sum(part.data_pkt_hops for part in parts),
        data_pkts_sent=sum(part.data_pkts_sent for part in parts),
        # No injector ever runs in a worker (``serial_reason``).
        fault_stats={},
        fault_incidents=[],
        busy_s=max(part.busy_s for part in parts),
        stages=merge_stage_dicts([part.stages for part in parts]),
        **summed,
    )


def run_scenario_sharded(
    spec: ScenarioSpec, config: Optional[RunConfig] = None
) -> RunResult:
    """Run one scenario partitioned across ``config.shards`` processes.

    The parent builds the full (unrun) scenario for topology, routing,
    ground truth and the analyzer phase; each forked worker rebuilds the
    scenario as a shard view and simulates only its own nodes.  Returns a
    :class:`RunResult` whose diagnoses are byte-identical to
    :func:`run_scenario` on the same spec — which is also what runs, on
    the scenario already built and with nothing forked, whenever
    :func:`serial_reason` names a reason.
    """
    config = config if config is not None else RunConfig()
    timeout_s = resolve_timeout(config.shard_timeout_s)

    wall_start = time.perf_counter()
    scenario = spec.build()
    net = scenario.network
    plan = partition_topology(net.topology, config.shards)
    reason = serial_reason(config, plan)
    if reason is not None:
        result = run_scenario(scenario, config)
        result.perf.supervision = {"serial_reason": reason}
        return result

    caches_before = global_cache_counters()
    metrics = MetricsRegistry()
    profile = StageProfile(metrics)

    obs: Optional[PipelineObs] = None
    if config.obs is not None and config.obs.trace:
        obs = PipelineObs(Tracer(config.obs.build_sink()), metrics)
        obs.begin_scenario(scenario.name, start_ns=0, system=config.system.value)

    ctx = fork_context()

    conns: List[Any] = []
    procs: List[Any] = []

    # Every exit path — normal return, exception unwind, SIGTERM, even
    # interpreter shutdown with workers still forked — must kill the
    # fleet; killing is idempotent, so belt (finally) and suspenders
    # (atexit/signal) cannot collide.
    def _emergency_cleanup() -> None:
        for proc in procs:
            if proc.is_alive():
                proc.kill()

    atexit.register(_emergency_cleanup)
    installed_sig = False
    old_sigterm = None
    if threading.current_thread() is threading.main_thread():

        def _on_sigterm(signum, frame):  # pragma: no cover - signal path
            raise SystemExit(143)

        try:
            old_sigterm = signal.signal(signal.SIGTERM, _on_sigterm)
            installed_sig = True
        except (ValueError, OSError):  # pragma: no cover - exotic host
            pass

    duration = scenario.duration_ns
    lookahead = max(plan.lookahead_ns, 1)
    frames_for: List[List[tuple]] = [[] for _ in range(plan.shards)]
    barrier_epochs = 0
    pipe_frames = 0
    failure: Optional[ShardWorkerError] = None
    shard_totals: List[SessionTotals] = []

    def _recv(shard_id: int, deadline: float):
        """Watchdog recv: bounded by ``deadline``, alive-checked.

        Raises :class:`ShardWorkerError` (or a subclass) instead of ever
        blocking forever on a dead or wedged worker.
        """
        conn = conns[shard_id]
        proc = procs[shard_id]
        while True:
            if conn.poll(0.05):
                try:
                    msg = conn.recv()
                except (EOFError, OSError):
                    raise ShardCrashed(
                        shard_id,
                        f"shard {shard_id} worker died mid-protocol "
                        f"(exitcode {proc.exitcode})",
                    ) from None
                if msg[0] == "error":
                    raise ShardWorkerError(
                        shard_id, f"shard {shard_id} failed:\n{msg[1]}"
                    )
                return msg
            if not proc.is_alive() and not conn.poll(0):
                raise ShardCrashed(
                    shard_id,
                    f"shard {shard_id} worker died mid-protocol "
                    f"(exitcode {proc.exitcode})",
                )
            if time.monotonic() > deadline:
                raise ShardTimeout(
                    shard_id,
                    f"shard {shard_id} missed the barrier watchdog deadline "
                    f"({timeout_s:g}s)",
                )

    try:
        for shard_id in range(plan.shards):
            parent_conn, child_conn = ctx.Pipe()
            proc = ctx.Process(
                target=_shard_worker_main,
                args=(child_conn, spec, config, plan, shard_id),
                daemon=True,
            )
            proc.start()
            child_conn.close()
            conns.append(parent_conn)
            procs.append(proc)

        with profile.stage("simulate"):
            until = 0
            while True:
                epoch_no = barrier_epochs
                barrier_epochs += 1
                deadline = time.monotonic() + timeout_s
                for shard_id, conn in enumerate(conns):
                    conn.send(("epoch", epoch_no, until, frames_for[shard_id]))
                    frames_for[shard_id] = []
                earliest: Optional[int] = None
                for shard_id in range(plan.shards):
                    _, frames_out, peek, out_min = _recv(shard_id, deadline)
                    if peek is not None and (earliest is None or peek < earliest):
                        earliest = peek
                    if out_min is not None and (
                        earliest is None or out_min < earliest
                    ):
                        earliest = out_min
                    for dest, dest_frames in frames_out.items():
                        frames_for[dest].extend(dest_frames)
                        pipe_frames += len(dest_frames)
                if until >= duration:
                    break
                if earliest is None:
                    until = duration
                else:
                    until = min(
                        duration, max(earliest + lookahead - 1, until + 1)
                    )
        with profile.stage("flush_pending"):
            deadline = time.monotonic() + timeout_s
            for conn in conns:
                conn.send(("finish",))
            for shard_id in range(plan.shards):
                shard_totals.append(_recv(shard_id, deadline)[1])
    except ShardWorkerError as exc:
        failure = exc
    finally:
        for proc in procs:
            if proc.is_alive():
                proc.terminate()
        for proc in procs:
            proc.join(timeout=5)
            if proc.is_alive():  # pragma: no cover - hung worker backstop
                proc.kill()
                proc.join(timeout=5)
        for conn in conns:
            try:
                conn.close()
            except OSError:  # pragma: no cover - already closed
                pass
        atexit.unregister(_emergency_cleanup)
        if installed_sig:
            signal.signal(signal.SIGTERM, old_sigterm)

    if failure is not None:
        # A lost worker has one answer.  The parent's scenario was built
        # but never run — rerunning it on the single-process engine
        # reproduces the sharded result byte-for-byte.
        result = run_scenario(scenario, config)
        result.perf.supervision = {
            "timeout_s": timeout_s,
            "fallback_ran": "serial",
            "lost_shards": [failure.shard_id],
            "failure": str(failure),
            "failure_kind": "worker",
        }
        result.metrics.counter("shard.fallbacks").inc()
        return result

    total = _sum_totals(shard_totals)
    metrics.absorb_counters("", total.registry)
    if obs is not None:
        _merge_obs(obs, [part.obs for part in shard_totals])
    result = account_run(
        scenario, config, total, duration, profile, wall_start, caches_before,
        obs=obs,
    )

    # Parent stages (simulate, flush_pending, analyzer stages) carry
    # wall_s/calls; worker stages (shard_run, shard_transport) are merged
    # across shards into summed wall_s plus max_wall_s — the slowest
    # shard, i.e. the stage's critical-path contribution.
    perf = result.perf
    for name, entry in total.stages.items():
        perf.stages.setdefault(name, entry)
    sim_wall_s = perf.stages.get("simulate", {}).get("wall_s", perf.wall_s)
    perf.shards = plan.shards
    perf.barrier_epochs = barrier_epochs
    perf.barrier_stall_s = max(sim_wall_s - total.busy_s, 0.0)
    perf.aggregate_events_per_sec = (
        perf.events_run / total.busy_s if total.busy_s > 0 else 0.0
    )
    perf.transport = {"pipe_frames": pipe_frames}
    perf.supervision = {"timeout_s": timeout_s}
    return result
