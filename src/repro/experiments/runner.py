"""Scenario runner: simulate, collect, diagnose and account — for Hawkeye
and every baseline system (§4).

One :func:`run_scenario` call takes a freshly built scenario, attaches the
system under test, runs the simulator, then produces per-victim diagnoses
plus the overhead/coverage accounting the evaluation figures need.

:func:`run_scenarios_parallel` fans independent scenario runs out over a
process pool (:func:`~repro.experiments.supervise.fork_map`).  The unit of
work is a cell, ``(ScenarioSpec, RunConfig)``: the scenario is rebuilt
inside the worker from its spec (a live scenario holds scheduled closures
and cannot cross a process boundary) and the run reduced to a picklable
:class:`RunSummary`.  Sweeps, the chaos harness and the accuracy benches
map the same worker.  Because every run is seeded through its spec and the
simulator is deterministic, ``jobs=N`` produces byte-identical summaries to
``jobs=1``.
"""

from __future__ import annotations

import gc
import time
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field
from typing import Any, Callable, Dict, Iterable, Iterator, List, Optional, Sequence, Set, Tuple

from ..baselines.systems import (
    SystemKind,
    apply_visibility,
    bandwidth_overhead_bytes,
    processing_overhead_bytes,
)
from ..collection.agent import DetectionAgent, TriggerEvent
from ..collection.collector import ReportIndex, TelemetryCollector
from ..collection.polling import PollingConfig, PollingEngine
from ..core.build import AnnotatedGraph, build_provenance
from ..faults.injector import FaultIncident, make_injector
from ..faults.plan import FaultPlan
from ..core.diagnosis import Diagnoser
from ..core.report import Diagnosis
from ..monitor.monitor import FabricMonitor, MonitorConfig
from ..obs import (
    MetricsRegistry,
    ObsConfig,
    PipelineObs,
    SimTraceObserver,
    StageProfile,
    Tracer,
)
from ..sim.packet import POLLING_PACKET_SIZE, FlowKey
from ..telemetry.epoch import EpochScheme
from ..telemetry.hawkeye import HawkeyeDeployment, TelemetryConfig
from ..telemetry.snapshot import SwitchReport
from ..units import usec
from ..workloads.anomalies import SCENARIO_BUILDERS
from ..workloads.scenario import Scenario
from .metrics import diagnosis_correct
from .perfstats import PerfStats, diff_cache_counters, global_cache_counters
from .supervise import fork_map


@dataclass
class RunConfig:
    """Everything the parameter sweeps of Fig 7/8 vary."""

    system: SystemKind = SystemKind.HAWKEYE
    epoch_size_ns: int = 1 << 20  # ~1 ms, in EpochScheme's ring of 4 epochs
    threshold_multiplier: float = 3.0  # 300% of base RTT
    flow_slots: int = 4096
    exclude_paused_in_contention: bool = True  # ablation knob
    use_meters: bool = True  # ablation knob: False = ITSY-style 1-bit presence
    # Chaos testing: a seeded fault plan for the collection pipeline, and
    # whether the retry/backoff timers of ``repro.faults.plan`` answer it.
    # ``faults=None`` (or an all-zero plan) keeps the pipeline on the
    # fault-free fast path.
    faults: Optional[FaultPlan] = None
    retry: bool = False
    # Observability: ``None`` (or ``trace=False``) keeps every instrumented
    # call site on the is-None fast path; a live tracer is built per run
    # (and per worker — the frozen config is what crosses process pools).
    obs: Optional[ObsConfig] = None
    # Continuous fabric monitoring: ``None`` keeps the sim on the
    # no-monitor fast path; like ``obs``, the frozen config crosses process
    # pools and each worker builds its own FabricMonitor.
    monitor: Optional[MonitorConfig] = None
    # Partition one fabric across this many worker processes (see
    # ``repro.experiments.shardrun``).  ``1`` runs in-process; values above
    # the topology's pod count are clamped by the partitioner, and a config
    # ``shardrun.serial_reason`` names a reason for (faults, retry, monitor,
    # sim or pipeline tracing, collect-everywhere systems) runs on the
    # serial engine.
    shards: int = 1

    def scheme(self) -> EpochScheme:
        return EpochScheme.from_epoch_size(self.epoch_size_ns)


@dataclass
class VictimOutcome:
    victim: FlowKey
    trigger: Optional[TriggerEvent]
    diagnosis: Optional[Diagnosis]
    annotated: Optional[AnnotatedGraph] = None
    reports_used: Dict[str, SwitchReport] = field(default_factory=dict)


@dataclass
class RunResult:
    scenario: Scenario
    config: RunConfig
    outcomes: List[VictimOutcome]
    collected_switches: List[str]
    causal_switches: Set[str]
    processing_bytes: int
    bandwidth_bytes: int
    polling_packets: int
    collections: int
    events_run: int
    data_pkt_hops: int
    perf: Optional[PerfStats] = None
    # Chaos accounting: per-fault-type/recovery counters and the ordered
    # incident log (both empty on fault-free runs).
    fault_counters: Dict[str, int] = field(default_factory=dict)
    fault_incidents: List[str] = field(default_factory=list)
    # Observability: the run's metrics registry (always present) and the
    # pipeline tracer facade (None unless RunConfig.obs enabled tracing).
    metrics: Optional[MetricsRegistry] = None
    obs: Optional[PipelineObs] = None
    # Continuous fabric monitor (None unless RunConfig.monitor enabled it).
    monitor: Optional[FabricMonitor] = None

    def primary_outcome(self) -> Optional[VictimOutcome]:
        """The earliest-complaining victim's outcome (the paper diagnoses
        one anomaly per complaint; concurrent victims share telemetry)."""
        triggered = [o for o in self.outcomes if o.trigger is not None]
        if not triggered:
            return None
        return min(triggered, key=lambda o: o.trigger.time_ns)

    def diagnosis(self) -> Optional[Diagnosis]:
        outcome = self.primary_outcome()
        return outcome.diagnosis if outcome else None

    def used_switches(self) -> List[str]:
        """Switches whose telemetry the primary diagnosis actually used."""
        outcome = self.primary_outcome()
        if outcome is None:
            return []
        return sorted(outcome.reports_used)

    @property
    def causal_coverage(self) -> float:
        """Fraction of causally relevant switches the diagnosis had data for."""
        if not self.causal_switches:
            return 1.0
        hit = len(self.causal_switches & set(self.used_switches()))
        return hit / len(self.causal_switches)


def select_reports(
    reports: Iterable[SwitchReport], trigger_time: int
) -> Dict[str, SwitchReport]:
    """Pick, per switch, the report that covers a trigger
    (:meth:`ReportIndex.select`) from a list of delivered reports."""
    return ReportIndex(reports).select(trigger_time)


def _qualify_diagnosis(
    diagnosis: Diagnosis,
    net,
    traced_of: Optional[Callable[[FlowKey], Set[str]]],
    victim: FlowKey,
    src_host: str,
    reports: Dict[str, SwitchReport],
) -> None:
    """Stamp a diagnosis with how complete and clean its telemetry was.

    The *expected* switch set is what the analyzer can legitimately know
    without ground truth: the victim's routed path, plus whatever the
    polling trace actually covered, plus the frontier gaps the provenance
    builder marked.  Lost polling packets shrink the trace and lost reports
    shrink coverage, so the shortfall is exactly what degraded.
    """
    expected: Set[str] = set(
        net.routing.switch_path(src_host, victim.dst_ip, victim)
    )
    if traced_of is not None:
        expected |= traced_of(victim)
    expected |= set(diagnosis.missing_switches)
    covered = set(reports)
    diagnosis.completeness = (
        len(expected & covered) / len(expected) if expected else 1.0
    )
    diagnosis.missing_switches = sorted(
        set(diagnosis.missing_switches) | (expected - covered)
    )
    diagnosis.degraded_reports = sorted(
        f"{name}[{','.join(report.faults)}]"
        for name, report in reports.items()
        if report.faults
    )


def diagnose_victims(
    scenario: Scenario,
    config: RunConfig,
    net,
    reports: ReportIndex,
    triggers: Sequence[TriggerEvent],
    traced_of: Optional[Callable[[FlowKey], Set[str]]],
    now_ns: int,
    obs: Optional[PipelineObs] = None,
    monitor: Optional[FabricMonitor] = None,
    profile: Optional[StageProfile] = None,
) -> List[VictimOutcome]:
    """Produce one :class:`VictimOutcome` per scenario victim.

    This is the analyzer half of a run, shared between the in-process
    runner (which passes its live collector/engine/agent state) and the
    sharded orchestrator (which passes the merged state of its workers):
    report selection, visibility transform, provenance construction,
    diagnosis and qualification — identical inputs produce identical
    outcomes no matter which execution produced the telemetry.
    """
    if profile is None:
        profile = StageProfile(MetricsRegistry())
    diagnoser = Diagnoser()
    outcomes: List[VictimOutcome] = []
    for victim in scenario.victims:
        trigger = next((t for t in triggers if t.victim == victim.key), None)
        if trigger is None:
            outcome = VictimOutcome(victim.key, None, None)
        else:
            outcome = _diagnose_one(
                victim.key, trigger, config, net, reports, traced_of,
                now_ns, diagnoser, profile, obs=obs, monitor=monitor,
            )
        outcomes.append(outcome)
    return outcomes


def _diagnose_one(
    victim: FlowKey,
    trigger: TriggerEvent,
    config: RunConfig,
    net,
    reports: ReportIndex,
    traced_of: Optional[Callable[[FlowKey], Set[str]]],
    now_ns: int,
    diagnoser: Diagnoser,
    profile: StageProfile,
    obs: Optional[PipelineObs] = None,
    monitor: Optional[FabricMonitor] = None,
) -> VictimOutcome:
    """Diagnose one triggered victim: the per-victim unit of every analyzer
    (batch, sharded, served and the continuous :mod:`.analyzer` service).

    Reports are selected at ``trigger``'s time.  Pure function of its
    telemetry inputs (plus perf side effects on ``profile`` and the
    ``obs``/``monitor`` hooks).
    """
    kind = config.system
    scheme = config.scheme()
    src_host = net.topology.host_of_ip(victim.src_ip)
    with profile.stage("select_reports"):
        raw = reports.select(trigger.time_ns)
    if traced_of is not None:
        # Each diagnosis consumes telemetry only from the switches its
        # own polling trace covered (concurrent victims of the same
        # anomaly share reports; unrelated switches are never fetched).
        traced = traced_of(victim)
        raw = {name: r for name, r in raw.items() if name in traced}
    if not kind.traces_pfc and not kind.collects_everywhere:
        # Victim-path-only systems diagnose each complaint from the
        # telemetry of that victim's own path — the whole point of the
        # Fig 8 comparison is that this misses part of the PFC loop.
        on_path = set(net.routing.switch_path(src_host, victim.dst_ip, victim))
        raw = {name: r for name, r in raw.items() if name in on_path}
    reports = {name: apply_visibility(kind, r) for name, r in raw.items()}
    with profile.stage("graph_build"):
        annotated = build_provenance(
            reports,
            net.topology,
            window_ns=scheme.window_ns,
            victim=victim,
            exclude_paused=config.exclude_paused_in_contention,
            epoch_size_ns=scheme.epoch_size_ns,
            obs=obs,
            now_ns=now_ns,
        )
    victim_path = net.routing.flow_path(src_host, victim.dst_ip, victim)[1:]
    with profile.stage("diagnose"):
        diagnosis = diagnoser.diagnose(
            annotated,
            victim,
            victim_path_ports=victim_path,
            obs=obs,
            now_ns=now_ns,
        )
    with profile.stage("qualify"):
        _qualify_diagnosis(diagnosis, net, traced_of, victim, src_host, reports)
    if monitor is not None:
        # The obs span must be read before on_verdict closes it.
        span_id = obs.diagnosis_span_id(victim) if obs is not None else None
        monitor.timeline.record_diagnosis(
            diagnosis, trigger.time_ns, now_ns, span_id=span_id
        )
    if obs is not None:
        obs.on_verdict(victim, now_ns, diagnosis)
    return VictimOutcome(victim, trigger, diagnosis, annotated, reports)


def causal_switches_of(scenario: Scenario, victim: FlowKey) -> Set[str]:
    """The switches a diagnosis provably needs: the victim's path, the PFC
    loop (if any) and the initial congestion switch."""
    net = scenario.network
    truth = scenario.truth
    src_host = net.topology.host_of_ip(victim.src_ip)
    causal = set(net.routing.switch_path(src_host, victim.dst_ip, victim))
    causal.update(p.node for p in truth.loop_ports)
    if truth.initial_port is not None:
        causal.add(truth.initial_port.node)
    return causal


@dataclass
class SessionTotals:
    """What one session's simulation amounted to, as plain picklable data.

    The in-process run reads one from its own session
    (:meth:`FabricSession.totals`); the sharded parent sums its workers'
    (``repro.experiments.shardrun``).  Either way :func:`account_run`
    turns the record into the :class:`RunResult`, so every overhead,
    fault and metrics figure is computed in one place.
    """

    reports: List[SwitchReport]
    triggers: List[TriggerEvent]
    # victim -> switches its polling trace visited; None without an engine.
    traced: Optional[Dict[FlowKey, Set[str]]]
    collection: Dict[str, int]
    polling: Dict[str, int]
    agent: Dict[str, int]
    sim: Dict[str, int]
    data_pkt_hops: int
    data_pkts_sent: int
    # Per-run telemetry caches (snapshot, epoch materialization).
    caches: Dict[str, Dict[str, int]]
    fault_stats: Dict[str, int]
    fault_incidents: List[FaultIncident]
    # Filled by shard workers only: busy CPU seconds and stage profile.
    busy_s: float = 0.0
    stages: Dict[str, Dict[str, Any]] = field(default_factory=dict)


def account_run(
    scenario: Scenario,
    config: RunConfig,
    totals: SessionTotals,
    now_ns: int,
    profile: StageProfile,
    wall_start: float,
    caches_before: Dict[str, Tuple[int, int]],
    obs: Optional[PipelineObs] = None,
    monitor=None,
) -> RunResult:
    """Diagnose every victim from ``totals`` and account the run.

    The one epilogue of every execution mode.  ``profile`` (and the
    registry it feeds), ``obs`` and ``monitor`` are the caller's live
    objects: the session's own in-process, the parent's merged profile
    when sharded (a traced or monitored run is never sharded).
    ``caches_before`` scopes the process-global cache counters to this
    run by differencing.
    """
    net = scenario.network
    kind = config.system
    metrics = profile.metrics
    traced = totals.traced
    traced_of: Optional[Callable[[FlowKey], Set[str]]] = None
    if traced is not None:
        traced_of = lambda key: set(traced.get(key, ()))  # noqa: E731

    outcomes = diagnose_victims(
        scenario, config, net, ReportIndex(totals.reports), totals.triggers,
        traced_of,
        now_ns, obs=obs, monitor=monitor, profile=profile,
    )

    data_pkt_hops = totals.data_pkt_hops
    polling_pkts = totals.polling.get("packets_forwarded", 0) + len(totals.triggers)
    # Processing overhead = the telemetry one diagnosis consumes
    # (Fig 9a); NetSight is the exception: it ships every postcard
    # regardless.
    primary = min(
        (o for o in outcomes if o.trigger is not None),
        key=lambda o: o.trigger.time_ns,
        default=None,
    )
    diagnosis_reports = primary.reports_used if primary is not None else {}
    processing = processing_overhead_bytes(kind, diagnosis_reports, data_pkt_hops)
    bandwidth = bandwidth_overhead_bytes(
        kind, polling_pkts, POLLING_PACKET_SIZE, totals.data_pkts_sent, data_pkt_hops
    )

    causal: Set[str] = set()
    for victim in scenario.victims:
        causal |= causal_switches_of(scenario, victim.key)

    cache_stats = diff_cache_counters(caches_before, global_cache_counters())
    cache_stats.update(totals.caches)

    # The injector's tally, one name per incident-log entry.  What the
    # components did about the faults (retransmissions, DMA retries, lost
    # reports) stays under their own ``agent.*``/``collection.*``/
    # ``polling.*`` metrics below.
    fault_counters: Dict[str, int] = dict(totals.fault_stats)
    collection = totals.collection

    sim = totals.sim
    wall_s = time.perf_counter() - wall_start
    perf = PerfStats(
        scenario=scenario.name,
        wall_s=wall_s,
        events_run=sim["events_run"],
        events_per_sec=sim["events_run"] / wall_s if wall_s > 0 else 0.0,
        peak_pending_events=sim["max_pending_entries"],
        events_purged=sim["events_purged"],
        compactions=sim["compactions"],
        caches=cache_stats,
        faults=fault_counters,
        stages=profile.to_dict(),
    )

    # Fold every legacy counter surface into the one registry the
    # ``--metrics-json`` export reads (the trace-derived ``events.*``
    # counters are already live in it).
    metrics.absorb_counters("sim", sim)
    metrics.absorb_counters("cache", cache_stats)
    metrics.absorb_counters("collection", collection)
    metrics.absorb_counters("agent", {"triggers": len(totals.triggers), **totals.agent})
    if traced is not None:
        metrics.absorb_counters("polling", totals.polling)
    if fault_counters:
        metrics.absorb_counters("faults", fault_counters)
    if monitor is not None:
        metrics.absorb_counters("monitor", monitor.counters())
    metrics.gauge("run.wall_s").set(perf.wall_s)
    metrics.gauge("run.sim_ns").set(float(now_ns))

    if obs is not None:
        obs.end_scenario(now_ns)

    return RunResult(
        scenario=scenario,
        config=config,
        outcomes=outcomes,
        collected_switches=sorted({r.switch for r in totals.reports}),
        causal_switches=causal,
        processing_bytes=processing,
        bandwidth_bytes=bandwidth,
        polling_packets=polling_pkts,
        collections=collection["collections"],
        events_run=sim["events_run"],
        data_pkt_hops=data_pkt_hops,
        perf=perf,
        fault_counters=fault_counters,
        fault_incidents=[
            i.describe()
            for i in sorted(totals.fault_incidents, key=FaultIncident.sort_key)
        ],
        metrics=metrics,
        obs=obs,
        monitor=monitor,
    )


@contextmanager
def cycle_sweeps_off() -> Iterator[None]:
    """No automatic cycle sweeps while the simulator runs: it only churns
    events and packets that reference counting reclaims, so a sweep finds
    nothing.  The caller's setting is restored, also when a callback raises."""
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if was_enabled:
            gc.enable()


class FabricSession:
    """A live monitored fabric with the system under test attached.

    The construction half of :func:`run_scenario`, factored out so every
    execution mode shares one attach path:

    - **batch** (``repro run`` and every experiment harness):
      :meth:`advance` once to the scenario's duration, then
      :meth:`finish` — exactly the old ``run_scenario`` body;
    - **service** (``repro serve``): :meth:`advance` repeatedly on the
      event loop's own thread in *preemptible chunks* — a sim-time target
      plus an event budget, so the loop comes up for air every few
      milliseconds of host time however dense the timeline is — answer
      on-demand :meth:`diagnose_now` queries between chunks, and
      :meth:`finish` when the episode's duration is reached;
    - **shard worker** (``repro.experiments.shardrun``): a session on a
      shard view of the scenario, run epoch by epoch under the parent's
      barrier, then :meth:`totals` — the parent sums the workers' totals
      and calls the same :func:`account_run` that :meth:`finish` does.

    :meth:`~repro.sim.engine.Simulator.run` executes events in timestamp
    order regardless of where it stops, and a budget stop is an
    ``until_ns`` stop at an instant the event count picked rather than
    the caller (the instant in progress always drains first).  So
    chunking, by time or by count, never reorders work: a session
    advanced in N pieces produces byte-identical diagnoses to one
    advanced in a single call (pinned by the chopped-engine and
    served-episode rows of ``tests/test_determinism_matrix.py``).
    """

    def __init__(
        self, scenario: Scenario, config: Optional[RunConfig] = None
    ) -> None:
        self.wall_start = time.perf_counter()
        self.scenario = scenario
        self.config = config = config if config is not None else RunConfig()
        kind = config.system
        self.net = net = scenario.network
        scheme = config.scheme()
        # Scope the process-global cache counters to this run by
        # differencing (the caches persist across runs in one process).
        self._caches_before = global_cache_counters()

        self.metrics = metrics = MetricsRegistry()
        self.profile = StageProfile(metrics)
        self._sim_obs: Optional[SimTraceObserver] = None
        obs: Optional[PipelineObs] = None
        if config.obs is not None and config.obs.trace:
            obs = PipelineObs(Tracer(config.obs.build_sink()), metrics)
            obs.begin_scenario(
                scenario.name, start_ns=net.sim.now, system=kind.value
            )
            if config.obs.sim_events:
                self._sim_obs = SimTraceObserver(
                    obs.tracer, metrics, parent=obs.scenario_span
                )
                net.add_switch_observer(self._sim_obs)
        self.obs = obs

        self.monitor: Optional[FabricMonitor] = None
        if config.monitor is not None:
            self.monitor = FabricMonitor(
                net, config.monitor, metrics=metrics
            ).start()
        monitor = self.monitor

        self.injector = make_injector(config.faults)
        self.deployment = HawkeyeDeployment(
            net, TelemetryConfig(scheme=scheme, flow_slots=config.flow_slots)
        )
        self.collector = collector = TelemetryCollector(
            self.deployment, injector=self.injector, retry=config.retry, obs=obs
        )
        self.engine: Optional[PollingEngine] = None
        if kind.uses_polling_packets or kind.pfc_blind:
            # PFC-blind baselines still collect reactively along the victim
            # path (SpiderMon's collection model); their visibility
            # transform blinds the *contents* later.
            self.engine = engine = PollingEngine(
                net,
                self.deployment,
                PollingConfig(
                    trace_pfc=kind.traces_pfc, use_meters=config.use_meters
                ),
                injector=self.injector,
                obs=obs,
            )
            engine.add_mirror_listener(collector.on_polling_mirror)
        engine = self.engine

        self.agent = agent = DetectionAgent(
            net,
            config.threshold_multiplier,
            retry=config.retry,
            injector=self.injector,
            obs=obs,
            monitor=monitor,
        )
        if config.retry:
            if engine is not None:
                # Path-coverage probe: a trigger is answered only once every
                # switch the analyzer will want — the victim's routed path
                # plus whatever the polling trace reached — has delivered a
                # report at/after the trigger, or within 200 us before it
                # (a concurrent victim's collection the dedup interval made
                # this trigger share).
                # A single lost report, or a polling packet dying mid-path,
                # leaves a hole here and drives a retransmission.
                probe_slack_ns = usec(200)

                def _path_probe(victim_key: FlowKey, since_ns: int) -> bool:
                    src_host = net.topology.host_of_ip(victim_key.src_ip)
                    expected = set(
                        net.routing.switch_path(
                            src_host, victim_key.dst_ip, victim_key
                        )
                    )
                    expected |= engine.switches_traced_for(victim_key)
                    return expected <= collector.switches_reported_since(
                        since_ns - probe_slack_ns
                    )

                agent.set_report_probe(_path_probe)
                agent.add_retransmit_listener(engine.reset_victim)
            else:
                agent.set_report_probe(collector.has_report_since)
        if kind.collects_everywhere:
            # Full-network collection is subject to the same CPU read
            # latency as polling-driven collection.
            def _full_poll(_ev) -> None:
                net.sim.schedule(
                    collector.read_delay_ns,
                    lambda: collector.collect_all(net.sim.now),
                )

            agent.add_trigger_listener(_full_poll)

        self._finalized = False

    # -- execution -----------------------------------------------------------

    @property
    def now_ns(self) -> int:
        return self.net.sim.now

    @property
    def duration_ns(self) -> int:
        return self.scenario.duration_ns

    @property
    def complete(self) -> bool:
        """Has the scenario's full duration been simulated?"""
        return self.net.sim.now >= self.scenario.duration_ns

    def advance(
        self,
        until_ns: int,
        max_events: Optional[int] = None,
        stop: Optional[Callable[[], bool]] = None,
        stop_every: int = 1,
    ) -> int:
        """Run the fabric up to ``until_ns`` (clamped to the duration).

        Returns the new simulated time, which is short of the target only
        when ``max_events`` ran out first or ``stop``, asked every
        ``stop_every`` events, said so (see :meth:`Simulator.run
        <repro.sim.engine.Simulator.run>`); calling again resumes.  Batch
        callers pass neither.  The clock never runs past the scenario's
        end.
        """
        target = min(until_ns, self.scenario.duration_ns)
        if target > self.net.sim.now:
            with self.profile.stage("simulate"), cycle_sweeps_off():
                self.net.run(target, max_events, stop, stop_every)
        return self.net.sim.now

    def finalize(self) -> None:
        """Flush pending telemetry reads and stop the observers (idempotent)."""
        if self._finalized:
            return
        self._finalized = True
        with self.profile.stage("flush_pending"):
            self.collector.flush_pending(self.net.sim.now)
        if self._sim_obs is not None:
            self._sim_obs.finish(self.net.sim.now)
        if self.monitor is not None:
            self.monitor.finish(self.net.sim.now)

    # -- on-demand diagnosis (the service plane's query path) ----------------

    def trigger_of(self, victim_key: FlowKey):
        """The victim's first complaint, or None if it never triggered."""
        return next(
            (t for t in self.agent.triggers if t.victim == victim_key), None
        )

    def diagnose_now(
        self, victim_key: FlowKey, record_incident: bool = False
    ) -> Optional[VictimOutcome]:
        """Diagnose one victim from the telemetry collected *so far*.

        Pure read of the session's collected state: no flush, no trace
        spans, and (unless ``record_incident``) no timeline write — so a
        mid-run query can never perturb the final batch-equivalent
        diagnosis.  Returns ``None`` when the victim has not complained
        yet (nothing to diagnose is an answer, not an error).
        """
        trigger = self.trigger_of(victim_key)
        if trigger is None or not any(
            v.key == victim_key for v in self.scenario.victims
        ):
            return None
        return _diagnose_one(
            victim_key,
            trigger,
            self.config,
            self.net,
            self.collector.index,
            self.engine.switches_traced_for if self.engine is not None else None,
            self.net.sim.now,
            Diagnoser(),
            self.profile,
            obs=None,
            monitor=self.monitor if record_incident else None,
        )

    # -- completion ----------------------------------------------------------

    def totals(self) -> SessionTotals:
        """Finalize and read what this session's run amounted to."""
        self.finalize()
        net, collector, engine, agent = (
            self.net, self.collector, self.engine, self.agent
        )
        injector = self.injector
        caches = {
            name: {"hits": hits, "misses": misses}
            for name, (hits, misses) in self.deployment.cache_counters().items()
        }
        return SessionTotals(
            reports=collector.reports,
            triggers=agent.triggers,
            traced=engine.victim_traces if engine is not None else None,
            collection=asdict(collector.stats),
            polling=(
                {
                    "packets_forwarded": engine.polling_packets_forwarded,
                    "packets_suppressed": engine.polling_packets_suppressed,
                    "packets_lost": engine.polling_packets_lost,
                }
                if engine is not None
                else {}
            ),
            agent={
                "retransmissions": agent.retransmissions,
                "retries_recovered": agent.retries_recovered,
                "retries_exhausted": agent.retries_exhausted,
                "restarts": agent.restarts,
            },
            sim=net.sim.counters(),
            data_pkt_hops=sum(sw.stats.data_pkts for sw in net.switches.values()),
            data_pkts_sent=sum(f.packets_sent for f in net.flows),
            caches=caches,
            fault_stats=injector.stats if injector is not None else {},
            fault_incidents=injector.incidents if injector is not None else [],
        )

    def finish(self) -> RunResult:
        """Finalize, diagnose every victim and account — the batch epilogue."""
        return account_run(
            self.scenario, self.config, self.totals(), self.net.sim.now,
            self.profile, self.wall_start, self._caches_before,
            obs=self.obs, monitor=self.monitor,
        )


def run_scenario(scenario: Scenario, config: Optional[RunConfig] = None) -> RunResult:
    """Attach the system under test, run, and diagnose every victim."""
    session = FabricSession(scenario, config)
    session.advance(scenario.duration_ns)
    return session.finish()


# ---------------------------------------------------------------------------
# Parallel execution
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ScenarioSpec:
    """A rebuildable reference to a scenario: builder name + seed.

    Workers receive specs instead of scenarios because a built scenario
    holds a simulator with scheduled closures and is not picklable; the
    builders in :data:`repro.workloads.SCENARIO_BUILDERS` are deterministic
    functions of their seed, so rebuilding is exact.

    Fuzzed scenarios have no named builder: ``genome_json`` carries the
    serialized :class:`~repro.fuzz.genome.ScenarioGenome` instead, and
    rebuilding decodes it — equally deterministic, so the sharded and
    parallel runners treat genome scenarios like any other spec.
    """

    builder: str
    seed: int = 1
    label: Optional[str] = None
    genome_json: Optional[str] = None

    @property
    def name(self) -> str:
        if self.label:
            return self.label
        if self.genome_json is not None:
            return f"genome[{self.builder}]"
        return f"{self.builder}[seed={self.seed}]"

    def build(self) -> Scenario:
        if self.genome_json is not None:
            from ..fuzz.genome import ScenarioGenome  # deferred: import cycle

            return ScenarioGenome.from_json(self.genome_json).build()
        return SCENARIO_BUILDERS[self.builder](seed=self.seed)


@dataclass
class RunSummary:
    """The picklable reduction of a :class:`RunResult`: one cell's result.

    Every multi-run path — :func:`run_scenarios_parallel`, ``run_sweep``,
    ``chaos_sweep`` and the accuracy benches — maps ``(ScenarioSpec,
    RunConfig)`` cells to summaries through :func:`_run_spec_worker`.  A
    summary keeps the primary :class:`Diagnosis` (plain data) and the
    figures the experiments and the determinism checks compare, and drops
    the live network/scenario objects that cannot cross a process boundary.
    """

    spec: ScenarioSpec
    # The earliest complaint's diagnosis; None when no victim complained.
    diagnosis: Optional[Diagnosis] = None
    correct: bool = False
    causal_coverage: float = 0.0
    events_run: int = 0
    processing_bytes: int = 0
    bandwidth_bytes: int = 0
    polling_packets: int = 0
    collections: int = 0
    perf: Optional[PerfStats] = None
    fault_counters: Dict[str, int] = field(default_factory=dict)
    fault_incidents: List[str] = field(default_factory=list)
    # Continuous-monitoring reduction (zero/empty when monitoring was off).
    alerts: int = 0
    incidents: int = 0
    alert_categories: Dict[str, int] = field(default_factory=dict)
    early_warnings: int = 0
    # The traceback of a cell that raised instead of finishing (a chaos
    # cell never raises; see ``repro.faults.chaos.run_chaos_cell``).
    error: Optional[str] = None

    @property
    def diagnosis_text(self) -> Optional[str]:
        return self.diagnosis.describe() if self.diagnosis is not None else None

    @property
    def confidence(self) -> str:
        return self.diagnosis.confidence if self.diagnosis is not None else "full"

    @property
    def completeness(self) -> float:
        return self.diagnosis.completeness if self.diagnosis is not None else 1.0

    @property
    def crashed(self) -> bool:
        return self.error is not None

    @property
    def wrong_full_confidence(self) -> bool:
        """The one outcome the pipeline must never produce: a wrong verdict
        asserted without any degradation qualifier."""
        return (
            self.diagnosis is not None
            and not self.correct
            and self.confidence == "full"
        )


def summarize_run(
    spec: ScenarioSpec,
    scenario: Scenario,
    result: RunResult,
) -> RunSummary:
    """Reduce a completed run to its picklable summary."""
    diagnosis = result.diagnosis()
    monitor = result.monitor
    return RunSummary(
        spec=spec,
        diagnosis=diagnosis,
        # No victim complained (a silent lordma-attack seed): nothing was
        # diagnosed, so nothing was diagnosed correctly.
        correct=diagnosis is not None
        and diagnosis_correct(diagnosis, scenario.truth),
        causal_coverage=result.causal_coverage,
        events_run=result.events_run,
        processing_bytes=result.processing_bytes,
        bandwidth_bytes=result.bandwidth_bytes,
        polling_packets=result.polling_packets,
        collections=result.collections,
        perf=result.perf,
        fault_counters=dict(result.fault_counters),
        fault_incidents=list(result.fault_incidents),
        alerts=len(monitor.alerts) if monitor is not None else 0,
        incidents=len(monitor.timeline.incidents) if monitor is not None else 0,
        alert_categories=(
            monitor.engine.alerts_by_category() if monitor is not None else {}
        ),
        early_warnings=(
            sum(1 for i in monitor.timeline.incidents if i.early_warning)
            if monitor is not None
            else 0
        ),
    )


def _run_spec_worker(item: Tuple[ScenarioSpec, RunConfig]) -> RunSummary:
    """The one unit of work of every multi-run path: build, run and
    summarize one ``(spec, config)`` cell (module-level, so it pickles)."""
    spec, config = item
    scenario = spec.build()
    result = run_scenario(scenario, config)
    return summarize_run(spec, scenario, result)


def run_scenarios_parallel(
    specs: Iterable[ScenarioSpec],
    config: Optional[RunConfig] = None,
    jobs: int = 1,
) -> List[RunSummary]:
    """Run independent scenarios across a process pool.

    Results come back in spec order regardless of completion order, and
    are identical to ``jobs=1`` (each run is fully determined by its spec's
    seed).  ``jobs=1`` runs in-process with no pool overhead.
    """
    config = config if config is not None else RunConfig()
    return fork_map(_run_spec_worker, [(spec, config) for spec in specs], jobs)
