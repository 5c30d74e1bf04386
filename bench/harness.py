"""What every workload shares: the run context, operations, verification
digests, the machine fingerprint and the metric roll-up.

Nothing here imports ``repro`` at module level — ``setup_s`` times that
import, so it must happen inside a workload's ``setup()``.
"""

from __future__ import annotations

import ctypes
import hashlib
import json
import os
import platform
import resource
import signal
import subprocess
import sys
import time
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional

import metrics as metric_defs
import stats
from spans import Recorder, budget

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"
GOLDEN = BENCH / "golden.json"
DEFAULT_SEED = 1


# Machine-speed calibration.  The sandbox's speed drifts by ~10% over
# minutes (and by far more for tens of seconds at a time), so paper_mix,
# fleet_sharded and poll_heavy time a fixed pure-Python loop before every
# operation and scale their wall-clock figures by REF_SPIN_S / (median
# loop time): 30 s medians of one fixed operation that wander over a 10%
# range raw stay within 2.4% scaled.  REF_SPIN_S is the loop's usual time
# on the reference box and is never changed: only ratios to it matter.
# serve_queries and fuzz_campaign take no samples and so are not scaled:
# a single-thread loop in the generator does not track a server or a
# worker pool in other processes (it widened their spread when tried).
SPIN_LOOPS = 400_000
REF_SPIN_S = 0.027


def spin() -> float:
    """Seconds the calibration loop takes right now."""
    start = time.perf_counter()
    acc = 0
    for i in range(SPIN_LOOPS):
        acc += i * i % 7
    return time.perf_counter() - start


def nproc() -> int:
    return os.cpu_count() or 1


def parallelism() -> int:
    """Program-side shards/jobs: two where the box has two cores."""
    return min(2, nproc())


def program_env() -> Dict[str, str]:
    """Environment for `python -m repro ...` subprocesses."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    return env


def sim_digest(*parts: Any) -> str:
    """sha256 over an operation's simulated statistics (verdict text,
    event counts, counters): exact for a seed, so two commits compare."""
    blob = json.dumps(parts, sort_keys=True, separators=(",", ":"), default=str)
    return hashlib.sha256(blob.encode()).hexdigest()


def fingerprint(seed: int) -> Dict[str, Any]:
    """The machine and commit a result is meaningless without."""
    try:
        import numpy

        numpy_version = numpy.__version__
    except ImportError:
        numpy_version = "absent"
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=10,
        ).stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        commit = "unknown"
    return {
        "commit": commit,
        "cpu_count": nproc(),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "platform": platform.platform(),
        "seed": seed,
    }


def adopt_orphans() -> None:
    """Become the reaper of every descendant (Linux child-subreaper), so a
    helper that outlives its parent — as multiprocessing's resource tracker
    would under a sharded `python -m repro` subprocess — is re-parented
    here, where ``reap_descendants`` waits for it, instead of to init."""
    try:
        ctypes.CDLL(None, use_errno=True).prctl(36, 1, 0, 0, 0)
    except (OSError, AttributeError):
        pass


def _children() -> List[int]:
    pids: List[int] = []
    for listing in Path("/proc/self/task").glob("*/children"):
        try:
            pids += [int(pid) for pid in listing.read_text().split()]
        except OSError:
            pass
    return pids


def reap_descendants(grace_s: float = 10.0) -> None:
    """Stop and wait for every process this one started, on every path out.

    ``run_scenario_sharded`` creates shared memory, which makes
    multiprocessing start a resource-tracker process that only exits once
    its parent has: left alone it outlives the benchmark.  Closing its
    pipe ends it now; whatever else is still alive after ``grace_s`` is
    killed.  Returns when this process has no children left.
    """
    module = sys.modules.get("multiprocessing.resource_tracker")
    tracker = getattr(module, "_resource_tracker", None)
    if tracker is not None and tracker._fd is not None:
        os.close(tracker._fd)
        tracker._fd = None
    deadline = time.monotonic() + grace_s
    killed = False
    while True:
        try:
            pid, _status = os.waitpid(-1, os.WNOHANG)
        except ChildProcessError:
            return
        if pid:
            continue
        if not killed and time.monotonic() > deadline:
            for child in _children():
                try:
                    os.kill(child, signal.SIGKILL)
                except ProcessLookupError:
                    pass
            killed = True
        time.sleep(0.005)


def peak_rss_mb() -> float:
    """Peak resident set of the generator plus its largest reaped child
    (server, shard worker, pool worker, CLI run), in MiB."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0


@dataclass
class Op:
    """One attempted operation and what verifying it found."""

    op_id: str
    kind: str
    round: int
    traced: bool
    latency_s: float
    ok: bool
    why: str = ""
    digest: Optional[str] = None
    events: int = 0
    counts_latency: bool = True   # a sample of the workload's latency
    work: int = 1                 # units towards throughput


@dataclass
class Run:
    """One benchmark run of one workload (the context workloads fill)."""

    workload: str
    seed: int
    seconds: float
    trace: bool
    smoke: bool = False
    rec: Recorder = field(default_factory=Recorder)
    ops: List[Op] = field(default_factory=list)
    wall_s: float = 0.0
    layer: Dict[str, float] = field(default_factory=dict)
    skipped: Dict[str, str] = field(default_factory=dict)
    notes: List[str] = field(default_factory=list)
    spins: List[float] = field(default_factory=list)
    spin_s: float = 0.0           # total time spent calibrating
    _hits: Dict[str, List[int]] = field(default_factory=dict)

    # -- sizing --------------------------------------------------------------

    def rounds(self, round_cost_s: float) -> int:
        """How many rounds fit: ``seconds`` of them untraced; a traced run
        spends part of its time on layer probes and needs an even count
        (traced and untraced rounds alternate).  Smoke runs one."""
        if self.smoke:
            return 1
        if not self.trace:
            return max(1, round(self.seconds / round_cost_s))
        pairs = max(1, round(self.seconds * 0.5 / round_cost_s / 2))
        return 2 * pairs

    def calibrate(self, times: int = 1) -> None:
        """Sample the machine's speed (call between operations)."""
        with self.rec.span("calibrate"):
            for _ in range(times):
                self.spins.append(spin())
                self.spin_s += self.spins[-1]

    def speed_factor(self) -> float:
        """< 1 when the machine ran slower than the reference during the run."""
        return REF_SPIN_S / stats.median(self.spins) if self.spins else 1.0

    def begin_round(self, round_no: int) -> None:
        """Even rounds of a traced run record spans; odd ones do not, so
        the two halves give the tracing overhead."""
        self.rec.enabled = self.trace and (self.smoke or round_no % 2 == 0)

    def closed_loop(self, rounds, do_op, spins: int = 0) -> None:
        """Run a closed-loop plan round by round: ``do_op(run, op,
        round_no)`` returns the Op; ``spins`` calibration samples are
        taken before each, and their time is kept out of the window."""
        start = time.perf_counter()
        for round_no, round_ops in enumerate(rounds):
            self.begin_round(round_no)
            with self.rec.span("round"):
                for op in round_ops:
                    if spins:
                        self.calibrate(spins)
                    self.ops.append(do_op(self, op, round_no))
        self.wall_s = time.perf_counter() - start - self.spin_s

    # -- per-layer accumulation ----------------------------------------------

    def add(self, name: str, value: float) -> None:
        self.layer[name] = self.layer.get(name, 0.0) + value

    def peak(self, name: str, value: float) -> None:
        self.layer[name] = max(self.layer.get(name, 0.0), value)

    def hit(self, cache: str, hits: int, misses: int) -> None:
        tally = self._hits.setdefault(cache, [0, 0])
        tally[0] += hits
        tally[1] += misses

    def hit_ratio(self, cache: str) -> float:
        hits, misses = self._hits.get(cache, (0, 0))
        return hits / (hits + misses) if hits + misses else 0.0

    def skip(self, name: str, reason: str) -> None:
        self.skipped[name] = reason

    def absorb_result(self, result, network=None) -> None:
        """Fold one RunResult's public counters into the layer counts."""
        self.add("sim.events", result.events_run)
        self.add("sim.data_pkt_hops", result.data_pkt_hops)
        self.add("collection.collections", result.collections)
        self.add("collection.reports", result.collections)
        self.add("collection.polling_packets", result.polling_packets)
        perf = result.perf
        if perf is not None:
            self.peak("sim.peak_pending_events", perf.peak_pending_events)
            self.add("sim.events_purged", perf.events_purged)
            self.add("sim.compactions", perf.compactions)
            for cache, tally in perf.caches.items():
                self.hit(cache, tally["hits"], tally["misses"])
        if network is not None:
            self.absorb_switch_stats(network)
        if result.monitor is not None:
            self.add("monitor.samples", result.monitor.counters()["samples"])
            self.add("monitor.alerts", len(result.monitor.alerts))

    def absorb_switch_stats(self, network) -> None:
        for switch in network.switches.values():
            self.add("sim.pause_sent", switch.stats.pause_sent)
            self.add("sim.ecn_marked", switch.stats.ecn_marked)

    def span_median(self, metric: str, span_name: str) -> None:
        durations = self.rec.durations(span_name)
        if durations:
            self.layer[metric] = stats.median(durations)


def check_golden(run: Run, golden: Dict[str, str]) -> None:
    """Fail any operation whose digest differs from the recorded one."""
    for op in run.ops:
        want = golden.get(op.op_id)
        if op.ok and op.digest is not None and want is not None and want != op.digest:
            op.ok = False
            op.why = f"sim_digest {op.digest[:12]} != golden {want[:12]}"


def load_golden() -> Dict[str, str]:
    if not GOLDEN.exists():
        return {}
    return json.loads(GOLDEN.read_text())


def overhead_ratio(run: Run) -> float:
    """Median latency of traced operations / untraced ones, over the
    operation kinds both halves of a traced run contain."""
    traced = [op.latency_s for op in run.ops if op.traced and op.counts_latency]
    plain = [op.latency_s for op in run.ops if not op.traced and op.counts_latency]
    if not traced or not plain:
        return 0.0
    return stats.median(traced) / stats.median(plain)


def raw_end_to_end(run: Run, setup_samples: List[float]) -> Dict[str, float]:
    """The end-to-end figures exactly as the wall clock gave them."""
    latencies = [op.latency_s for op in run.ops if op.counts_latency]
    work = sum(op.work for op in run.ops)
    return {
        "setup_s": stats.median(setup_samples),
        "latency_ms_p50": stats.percentile(latencies, 50) * 1e3,
        "latency_ms_p75": stats.percentile(latencies, 75) * 1e3,
        "throughput_per_s": work / run.wall_s,
        "peak_rss_mb": peak_rss_mb(),
    }


def end_to_end(run: Run, raw: Dict[str, float]) -> Dict[str, float]:
    """The reported figures: latency and throughput at reference machine
    speed (see REF_SPIN_S); set-up time and memory as measured."""
    factor = run.speed_factor()
    scaled = dict(raw)
    scaled["latency_ms_p50"] = raw["latency_ms_p50"] * factor
    scaled["latency_ms_p75"] = raw["latency_ms_p75"] * factor
    scaled["throughput_per_s"] = raw["throughput_per_s"] / factor
    return scaled


def per_layer(run: Run) -> Dict[str, float]:
    """Every per-layer metric by name; 0 where this workload has none."""
    values = dict(run.layer)
    values["telemetry.snapshot_hit_ratio"] = run.hit_ratio("telemetry_snapshot")
    values["telemetry.epoch_materialize_hit_ratio"] = run.hit_ratio(
        "telemetry_epoch_materialize"
    )
    values["core.replay_hit_ratio"] = run.hit_ratio("replay_contribution")
    values["core.report_agg_hit_ratio"] = run.hit_ratio("report_agg")
    sim_time = sum(op.latency_s for op in run.ops if op.events)
    if sim_time:
        values["sim.events_per_s"] = (
            sum(op.events for op in run.ops) / sim_time
        )
    values["bench.trace_overhead_ratio"] = overhead_ratio(run)
    values["bench.cpu_count"] = nproc()
    values["bench.speed_factor"] = run.speed_factor()
    unknown = sorted(set(values) - set(metric_defs.UNITS))
    if unknown:
        raise KeyError(f"metrics not declared in bench/metrics.py: {unknown}")
    return {
        name: float(values.get(name, 0.0))
        for name, _unit, _better in metric_defs.PER_LAYER
    }


def result_line(run: Run, values: Dict[str, float]) -> Dict[str, Any]:
    failed = sum(1 for op in run.ops if not op.ok)
    return {
        "correct": failed == 0,
        "attempted": len(run.ops),
        "failed": failed,
        "metrics": {
            name: {"value": value, "unit": metric_defs.UNITS[name]}
            for name, value in values.items()
        },
    }


def detail_document(
    run: Run, line: Dict[str, Any], all_metrics: Dict[str, float],
    raw: Dict[str, float], setup_samples: List[float],
) -> Dict[str, Any]:
    """The per-run detail file: everything the one-line result drops."""
    latencies = [op.latency_s for op in run.ops if op.counts_latency]
    document = {
        "fingerprint": fingerprint(run.seed),
        "workload": run.workload,
        "trace": run.trace,
        "smoke": run.smoke,
        "seconds": run.seconds,
        "comparable": not run.smoke,
        "result": line,
        "metrics": all_metrics,
        "raw_wall_clock": raw,
        "speed_factor": run.speed_factor(),
        "speed_samples": len(run.spins),
        "skipped": run.skipped,
        "notes": run.notes,
        "wall_s": run.wall_s,
        "setup_samples_s": setup_samples,
        "latency_samples": len(latencies),
        "latency_beyond_p75": stats.samples_beyond(len(latencies), 75),
        "latency_percentile_one_run_supports": stats.highest_supported(
            len(latencies)
        ),
        "repetitions": {
            "operations": len(run.ops),
            "rounds": 1 + max((op.round for op in run.ops), default=0),
        },
        "digests": {op.op_id: op.digest for op in run.ops if op.digest},
        "failures": [asdict(op) for op in run.ops if not op.ok],
    }
    if run.trace:
        # One table per kind of root: the traced rounds, and (serve_queries)
        # the traced queries, which overlap each other and the rounds.
        for key, root in (("budget", "round"), ("query_budget", "query")):
            rows = budget(run.rec.spans, root)
            if rows:
                document[key] = {
                    "rows_s": rows,
                    "rows_sum_s": sum(rows.values()),
                    "traced_wall_s": sum(run.rec.durations(root)),
                }
        document["spans"] = len(run.rec.spans)
    return document
