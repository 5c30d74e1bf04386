"""Telemetry register-plane benchmarks.

Two-level gate for the columnar telemetry plane:

- **Microbenchmark** — identical synthetic packet/PFC streams through the
  pure-Python reference plane the tests keep as their oracle
  (``tests/telemetry/reference.py``) and the columnar
  plane, measuring enqueue rate and collection (snapshot) latency.  The
  speedup is a same-process, same-machine ratio, so it is enforced
  unconditionally: the columnar plane must be >=3x faster end to end and
  produce byte-identical reports.

- **Monitoring pipeline** — the continuous-monitoring workload (pfc-storm
  plus the analyzer service with a 10 us full-network collection cadence),
  compared against the wall clock recorded on the pre-columnar code.  The
  incident-log fingerprint must match the recorded baseline exactly;
  the speedup floor is generous by default and the >=1.5x contract is
  enforced under ``REPRO_PERF_STRICT=1`` (machine-dependent baseline).

Both benchmarks merge their numbers into ``BENCH_perf.json`` next to the
incast entries (read-merge-write, so test order never drops keys).
"""

import gc
import hashlib
import os
import sys
import time
from pathlib import Path

import pytest

from conftest import print_table
from repro.experiments import BENCH_PERF_FILENAME, load_bench_json, write_bench_json
from repro.experiments.analyzer import deploy_analyzer
from repro.sim.packet import DATA_PRIORITY, FlowKey, Packet, PacketType
from repro.telemetry import HawkeyeSwitchTelemetry, TelemetryConfig
from repro.units import usec
from repro.workloads import SCENARIO_BUILDERS

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.append(str(REPO_ROOT))  # for the oracle under tests/
from tests.telemetry.reference import ReferenceSwitchTelemetry  # noqa: E402

STRICT = os.environ.get("REPRO_PERF_STRICT", "") == "1"

# -- microbenchmark workload ---------------------------------------------------
#
# 200k data enqueues plus interleaved PAUSE frames, spread over 32 epochs
# flowing through the 4-epoch ring, then two collection bursts of 5 reads
# each at the end (a collector read plus analyzer re-reads of one window).
# Most epochs are overwritten unread — exactly the regime the batched
# pending-queue design targets (hardware register writes are free; only
# CPU reads cost).  2000 distinct flows keep the flow table realistic and
# force hash collisions/evictions in the 4096 slots.
MICRO_EVENTS = 200_000
MICRO_EPOCHS = 32
MICRO_FLOWS = 2000
MICRO_PORTS = 16
MICRO_BURSTS = 2
MICRO_READS_PER_BURST = 5
MICRO_SPEEDUP = 3.0  # same-machine ratio: enforced unconditionally

# -- monitoring-pipeline baseline ---------------------------------------------
#
# Recorded on the pre-columnar telemetry plane (commit before this change),
# same harness as `_run_monitoring` below, best wall of 3.
MONITOR_BASELINE = {
    "wall_s": 0.825,
    "incidents": 21,
    "reports": 8000,
    "fingerprint_sha256": (
        "579e4ef16c748a1fb6890f1efb4ea88217e1d553b12d56a93a42a75b4e432fc7"
    ),
}
MONITOR_FLOOR_SPEEDUP = 1.2
MONITOR_STRICT_SPEEDUP = 1.5


def _merge_bench_json(updates):
    """Merge ``updates`` into BENCH_perf.json without dropping other keys."""
    path = REPO_ROOT / BENCH_PERF_FILENAME
    existing = load_bench_json(path) or {}
    existing.update(updates)
    write_bench_json(path, existing)


class _StubPort:
    def __init__(self) -> None:
        self.bandwidth = 100e9
        self.peer_is_host = False


class _StubSwitch:
    def __init__(self, num_ports: int) -> None:
        self.ports = {p: _StubPort() for p in range(num_ports)}


def _micro_events():
    flows = [
        FlowKey(f"10.{i // 250}.{(i // 10) % 25}.{i % 10}", "10.99.0.1", 1000 + i, 4791)
        for i in range(MICRO_FLOWS)
    ]
    pkts = [Packet(PacketType.DATA, 1024, DATA_PRIORITY, flow=f) for f in flows]
    events = []
    step = (MICRO_EPOCHS << 20) // MICRO_EVENTS
    t = 1 << 21
    for i in range(MICRO_EVENTS):
        t += step
        events.append(
            (
                t,
                pkts[(i * 7) % MICRO_FLOWS],
                (i * 3) % MICRO_PORTS,  # egress
                (i * 5) % MICRO_PORTS,  # ingress
                i % 32,  # queue depth
                (i % 11) == 0,  # port paused at enqueue
            )
        )
    return events, t


def _drive_plane(telem, events, end_ns):
    """Feed the stream, then run the collection bursts; returns timings."""
    switch = _StubSwitch(MICRO_PORTS)
    on_enq = telem.on_egress_enqueue
    on_pfc = telem.on_pfc_received
    gc.collect()
    w0 = time.perf_counter()
    for i, (t, pkt, egress, ingress, qdepth, paused) in enumerate(events):
        on_enq(switch, t, pkt, egress, ingress, qdepth, 0, paused)
        if (i % 97) == 0:
            on_pfc(switch, t, egress, DATA_PRIORITY, 0xFF)
    enqueue_s = time.perf_counter() - w0
    report = None
    s0 = time.perf_counter()
    for _ in range(MICRO_BURSTS):
        for _ in range(MICRO_READS_PER_BURST):
            report = telem.snapshot(end_ns)
    snapshot_s = time.perf_counter() - s0
    return enqueue_s, snapshot_s, report


def _assert_identical_reports(got, want):
    assert [e.epoch_number for e in got.epochs] == [e.epoch_number for e in want.epochs]
    for ge, we in zip(got.epochs, want.epochs):
        assert list(ge.flows) == list(we.flows) and ge.flows == we.flows
        assert list(ge.ports) == list(we.ports) and ge.ports == we.ports
        assert list(ge.meters) == list(we.meters) and ge.meters == we.meters
    assert got.port_status == want.port_status


@pytest.mark.benchmark(group="perf")
def test_telemetry_plane_microbenchmark():
    events, end_ns = _micro_events()
    config = TelemetryConfig()
    best = {}
    for name, cls in (
        ("reference", ReferenceSwitchTelemetry),
        ("columnar", HawkeyeSwitchTelemetry),
    ):
        for _ in range(3):
            sample = _drive_plane(cls("SW", config), events, end_ns)
            if name not in best or sample[0] + sample[1] < best[name][0] + best[name][1]:
                best[name] = sample

    ref_enq, ref_snap, ref_report = best["reference"]
    col_enq, col_snap, col_report = best["columnar"]
    _assert_identical_reports(col_report, ref_report)

    enq_speedup = ref_enq / col_enq
    snap_speedup = ref_snap / col_snap
    total_speedup = (ref_enq + ref_snap) / (col_enq + col_snap)
    reads = MICRO_BURSTS * MICRO_READS_PER_BURST
    rows = [
        (
            name,
            f"{enq * 1000:.1f}",
            f"{MICRO_EVENTS / enq / 1e6:.2f}",
            f"{snap * 1000 / reads:.2f}",
        )
        for name, (enq, snap, _) in (
            ("reference", best["reference"]),
            ("columnar", best["columnar"]),
        )
    ]
    print_table(
        "Telemetry register plane: reference vs columnar",
        ("plane", "enqueue ms", "Mpkt/s", "snapshot ms/read"),
        rows,
    )
    _merge_bench_json(
        {
            "telemetry_micro": {
                "events": MICRO_EVENTS,
                "flows": MICRO_FLOWS,
                "epochs_spanned": MICRO_EPOCHS,
                "snapshot_reads": reads,
                "reference": {"enqueue_s": round(ref_enq, 4), "snapshot_s": round(ref_snap, 4)},
                "columnar": {"enqueue_s": round(col_enq, 4), "snapshot_s": round(col_snap, 4)},
                "enqueue_speedup": round(enq_speedup, 2),
                "snapshot_speedup": round(snap_speedup, 2),
                "total_speedup": round(total_speedup, 2),
            }
        }
    )
    # Same-process ratio on identical streams: machine-independent contract.
    assert total_speedup >= MICRO_SPEEDUP, (
        f"columnar plane only {total_speedup:.2f}x faster than the reference "
        f"(need >={MICRO_SPEEDUP}x)"
    )


def _run_monitoring():
    """pfc-storm under the analyzer service with a 10 us collection cadence."""
    scenario = SCENARIO_BUILDERS["pfc-storm"](seed=1)
    net = scenario.network
    service = deploy_analyzer(net)
    collector = service.collector
    collector.dedup_interval_ns = usec(5)

    def tick():
        collector.collect_all(net.sim.now)
        net.sim.schedule(usec(10), tick)

    net.sim.schedule(usec(10), tick)
    gc.collect()
    t0 = time.perf_counter()
    net.run(scenario.duration_ns)
    wall = time.perf_counter() - t0
    fingerprint = hashlib.sha256(
        "\n".join(i.describe() for i in service.incidents).encode()
    ).hexdigest()
    return wall, len(service.incidents), len(collector.reports), fingerprint


@pytest.mark.benchmark(group="perf")
def test_monitoring_pipeline_speedup_and_identical_incidents():
    best = None
    for _ in range(3):
        sample = _run_monitoring()
        if best is None or sample[0] < best[0]:
            best = sample
    wall, incidents, reports, fingerprint = best
    base = MONITOR_BASELINE
    speedup = base["wall_s"] / wall

    print_table(
        "Continuous monitoring (pfc-storm, 10us collection cadence)",
        ("", "wall s", "incidents", "reports"),
        [
            ("pre-columnar", f"{base['wall_s']:.3f}", base["incidents"], base["reports"]),
            ("columnar", f"{wall:.3f}", incidents, reports),
            ("speedup", f"{speedup:.2f}x", "", ""),
        ],
    )
    _merge_bench_json(
        {
            "monitoring_pipeline": {
                "scenario": "pfc-storm",
                "collection_cadence_us": 10,
                "baseline_wall_s": base["wall_s"],
                "wall_s": round(wall, 4),
                "speedup": round(speedup, 3),
                "incidents": incidents,
                "reports": reports,
                "incidents_match_baseline": fingerprint == base["fingerprint_sha256"],
            }
        }
    )
    # The optimization contract: faster, never different.
    assert incidents == base["incidents"]
    assert reports == base["reports"]
    assert fingerprint == base["fingerprint_sha256"], (
        "columnar telemetry changed the diagnosed incidents"
    )
    floor = MONITOR_STRICT_SPEEDUP if STRICT else MONITOR_FLOOR_SPEEDUP
    assert speedup >= floor, (
        f"monitoring pipeline {speedup:.2f}x below the {floor}x "
        f"{'strict ' if STRICT else ''}floor "
        f"({wall:.3f}s vs baseline {base['wall_s']:.3f}s)"
    )
