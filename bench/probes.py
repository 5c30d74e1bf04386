"""Layer probes of the traced run: each times one layer through a public
call, outside the workload's measured window.

Probes cost time the end-to-end run does not have, so they run only
under ``--trace 1``, from the workload whose end-to-end metric the layer
should move.  Rows obtained by subtraction are *derived*, not measured
self time, and are listed in DERIVED.
"""

from __future__ import annotations

import gc
import subprocess
import sys
import time

import harness
import stats
from harness import Run

# Per-layer values that are a difference of two timed runs.
DERIVED = (
    "telemetry.attach_overhead_s",
    "monitor.overhead_s",
    "serve.queue_ms_p50",
)

PROBE_BUILDER = "incast-backpressure"
MONITOR_BUILDER = "pfc-storm"


def _timed(fn, *args, **kwargs):
    start = time.perf_counter()
    value = fn(*args, **kwargs)
    return time.perf_counter() - start, value


def cli_import(run: Run) -> None:
    """`import repro.cli` in a fresh interpreter (what every CLI run pays)."""
    samples = []
    for _ in range(1 if run.smoke else 3):
        wall, done = _timed(
            subprocess.run,
            [sys.executable, "-c", "import repro.cli"],
            env=harness.program_env(), cwd=harness.ROOT, timeout=120,
        )
        if done.returncode != 0:
            raise RuntimeError("`import repro.cli` failed in a subprocess")
        samples.append(wall)
    run.layer["cli.import_s"] = stats.median(samples)


def sim_and_attach(run: Run) -> None:
    """The simulator alone against the same scenario with Hawkeye
    attached: `advance` is opaque from outside, so the telemetry write
    cost is the difference (derived)."""
    from repro.experiments import FabricSession
    from repro.workloads import SCENARIO_BUILDERS

    scenario = SCENARIO_BUILDERS[PROBE_BUILDER](seed=run.seed)
    gc.collect()
    bare_s, _ = _timed(scenario.network.run, scenario.duration_ns)
    events = scenario.network.sim.events_run
    run.layer["sim.bare_run_s"] = bare_s
    run.layer["sim.us_per_event"] = bare_s / events * 1e6

    scenario = SCENARIO_BUILDERS[PROBE_BUILDER](seed=run.seed)
    session = FabricSession(scenario)
    gc.collect()
    attached_s, _ = _timed(session.advance, scenario.duration_ns)
    session.finish()
    run.layer["telemetry.attach_overhead_s"] = attached_s - bare_s


def _synthetic_stream(events: int, flows: int, ports: int, epochs: int):
    from repro.sim.packet import DATA_PRIORITY, FlowKey, Packet, PacketType

    keys = [
        FlowKey(
            f"10.{i // 250}.{(i // 10) % 25}.{i % 10}", "10.99.0.1",
            1000 + i, 4791,
        )
        for i in range(flows)
    ]
    pkts = [Packet(PacketType.DATA, 1024, DATA_PRIORITY, flow=k) for k in keys]
    step = (epochs << 20) // events
    now = 1 << 21
    stream = []
    for i in range(events):
        now += step
        stream.append((
            now, pkts[(i * 7) % flows], (i * 3) % ports, (i * 5) % ports,
            i % 32, (i % 11) == 0,
        ))
    return stream, now


class _StubPort:
    bandwidth = 100e9
    peer_is_host = False


class _StubSwitch:
    def __init__(self, ports: int) -> None:
        self.ports = {p: _StubPort() for p in range(ports)}


def telemetry_stream(run: Run) -> None:
    """Drive one switch's register plane directly: 200k enqueues of 2000
    flows over 32 epochs with interleaved PAUSE frames, then five reads of
    one window (first read flushes and materializes, repeats should hit)."""
    from repro.sim.packet import DATA_PRIORITY
    from repro.telemetry import HawkeyeSwitchTelemetry, TelemetryConfig

    events = 20_000 if run.smoke else 200_000
    ports = 16
    stream, end_ns = _synthetic_stream(events, 2000, ports, 32)
    telem = HawkeyeSwitchTelemetry("SW", TelemetryConfig())
    switch = _StubSwitch(ports)
    on_enqueue, on_pfc = telem.on_egress_enqueue, telem.on_pfc_received
    gc.collect()
    start = time.perf_counter()
    for i, (now, pkt, egress, ingress, depth, paused) in enumerate(stream):
        on_enqueue(switch, now, pkt, egress, ingress, depth, 0, paused)
        if i % 97 == 0:
            on_pfc(switch, now, egress, DATA_PRIORITY, 0xFF)
    run.layer["telemetry.enqueue_ns_per_pkt"] = (
        (time.perf_counter() - start) / events * 1e9
    )
    reads = [_timed(telem.snapshot, end_ns)[0] for _ in range(5)]
    run.layer["telemetry.snapshot_first_ms"] = reads[0] * 1e3
    run.layer["telemetry.snapshot_repeat_ms"] = stats.median(reads[1:]) * 1e3


def obs_tracing(run: Run) -> None:
    """The program's own tracer on against off: guards the is-None fast
    path every instrumented call site takes in the five workloads."""
    from repro.experiments import RunConfig, run_scenario
    from repro.obs import ObsConfig
    from repro.workloads import SCENARIO_BUILDERS

    off_s, _ = _timed(
        run_scenario, SCENARIO_BUILDERS[PROBE_BUILDER](seed=run.seed)
    )
    on_s, result = _timed(
        run_scenario,
        SCENARIO_BUILDERS[PROBE_BUILDER](seed=run.seed),
        RunConfig(obs=ObsConfig(trace=True)),
    )
    run.layer["obs.trace_on_ratio"] = on_s / off_s
    run.layer["obs.spans"] = len(result.obs.tracer.spans)


def pool_jobs2(run: Run, builder_seeds, serial_s: float) -> None:
    """`run_scenarios_parallel` at two jobs against the same seven runs
    done in-process by the workload's last round."""
    name = "experiments.pool.jobs2_speedup"
    if harness.nproc() < 2:
        run.skip(name, "cpu_count < 2")
        return
    if run.smoke:
        run.skip(name, "smoke run")
        return
    from repro.experiments import ScenarioSpec, run_scenarios_parallel

    specs = [ScenarioSpec(name, seed=seed) for name, seed in builder_seeds]
    pool_s, summaries = _timed(run_scenarios_parallel, specs, jobs=2)
    if not all(summary.correct for summary in summaries):
        raise RuntimeError("run_scenarios_parallel returned a wrong verdict")
    run.layer[name] = serial_s / pool_s


def monitor_cost(run: Run) -> None:
    """Monitor-on against monitor-off `run_scenario` (derived), and one
    Prometheus render of the finished monitor."""
    from repro.experiments import RunConfig, run_scenario
    from repro.monitor.export import prometheus_text
    from repro.monitor.monitor import MonitorConfig
    from repro.workloads import SCENARIO_BUILDERS

    off_s, _ = _timed(
        run_scenario, SCENARIO_BUILDERS[MONITOR_BUILDER](seed=run.seed)
    )
    on_s, result = _timed(
        run_scenario,
        SCENARIO_BUILDERS[MONITOR_BUILDER](seed=run.seed),
        RunConfig(monitor=MonitorConfig()),
    )
    run.layer["monitor.overhead_s"] = on_s - off_s
    run.add("monitor.samples", result.monitor.counters()["samples"])
    run.add("monitor.alerts", len(result.monitor.alerts))
    render_s, _ = _timed(prometheus_text, result.monitor)
    run.layer["monitor.prom_render_ms"] = render_s * 1e3


def core_graph(run: Run) -> None:
    """Provenance build on freshly collected reports, first call (cold)
    and second (the per-epoch replay memo lives on the reports), then one
    diagnosis.  The session is stopped short of `finish()`, which would
    warm the memo."""
    from repro.core import Diagnoser, build_provenance
    from repro.experiments import FabricSession, select_reports
    from repro.workloads import SCENARIO_BUILDERS

    scenario = SCENARIO_BUILDERS[MONITOR_BUILDER](seed=run.seed)
    session = FabricSession(scenario)
    session.advance(scenario.duration_ns)
    session.finalize()
    trigger = min(session.agent.triggers, key=lambda t: t.time_ns)
    victim = trigger.victim
    traced = session.engine.switches_traced_for(victim)
    chosen = select_reports(session.collector.reports, trigger.time_ns)
    reports = {name: r for name, r in chosen.items() if name in traced}
    scheme = session.config.scheme()
    net = session.net
    src_host = net.topology.host_of_ip(victim.src_ip)
    path = net.routing.flow_path(src_host, victim.dst_ip, victim)[1:]

    def build():
        return build_provenance(
            reports, net.topology, window_ns=scheme.window_ns, victim=victim,
            epoch_size_ns=scheme.epoch_size_ns,
        )

    run.layer["core.graph_build_cold_s"], graph = _timed(build)
    run.layer["core.graph_build_warm_s"], graph = _timed(build)
    run.layer["core.diagnose_s"], _ = _timed(
        Diagnoser().diagnose, graph, victim, victim_path_ports=path
    )
    run.layer["core.graph_ports"] = len(graph.graph.ports)
    run.layer["core.graph_edges"] = sum(1 for _ in graph.graph.edges())


def serve_parts(run: Run) -> None:
    """The service plane's own parts, in-process: one on-demand diagnosis
    on a finished session, the admission decision, and a broker publish
    fanned out to 200 in-memory subscriptions."""
    from repro.experiments import FabricSession
    from repro.serve import AdmissionController, StreamBroker
    from repro.workloads import SCENARIO_BUILDERS

    scenario = SCENARIO_BUILDERS[MONITOR_BUILDER](seed=run.seed)
    session = FabricSession(scenario)
    session.advance(scenario.duration_ns)
    session.finalize()
    victim = next(
        v.key for v in scenario.victims if session.trigger_of(v.key) is not None
    )
    samples = []
    for _ in range(5):
        wall, outcome = _timed(session.diagnose_now, victim)
        if outcome is None or outcome.diagnosis is None:
            raise RuntimeError("diagnose_now returned no diagnosis")
        samples.append(wall)
    run.layer["serve.diagnose_now_ms"] = stats.median(samples) * 1e3

    loops = 2_000 if run.smoke else 20_000
    admission = AdmissionController(tenant_rate_per_s=1e9, tenant_burst=1e9)
    start = time.perf_counter()
    for _ in range(loops):
        admission.admit("bench")
        admission.release()
    run.layer["serve.admit_ns"] = (time.perf_counter() - start) / loops * 1e9

    publishes = 200 if run.smoke else 2_000
    broker = StreamBroker()
    subs = [broker.subscribe("bench", maxsize=publishes + 1) for _ in range(200)]
    start = time.perf_counter()
    for i in range(publishes):
        broker.publish("alert", episode=0, index=i)
    run.layer["serve.publish_us_sub200"] = (
        (time.perf_counter() - start) / publishes * 1e6
    )
    if any(sub.queue.qsize() != publishes for sub in subs):
        raise RuntimeError("StreamBroker.publish dropped an event")
