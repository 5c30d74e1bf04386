"""The whole-snapshot memo: a re-read of an unchanged window is a hit, and
anything that changes what the CPU would read — a register write or a ring
wrap — is a miss that rebuilds the snapshot.  The polling engine and the
collector share it.  Every snapshot is checked against the reference
plane."""

import random

import pytest

from repro.collection import PollingEngine, TelemetryCollector
from repro.sim import Network, Packet, PollingFlag
from repro.sim.packet import FlowKey
from repro.telemetry import HawkeyeDeployment
from repro.topology import build_line
from repro.units import KB, usec
from tests.telemetry.reference import ReferenceSwitchTelemetry
from tests.telemetry.test_columnar_vs_reference import (
    _apply,
    _assert_reports_identical,
    _make_pair,
    _random_stream,
    _StubSwitch,
)

FLOW = FlowKey("10.0.0.1", "10.0.1.1", 1000, 4791)
T0 = 1 << 14


class _Pair:
    """The columnar plane and the reference, fed and read in lockstep."""

    def __init__(self, num_ports=4, flow_slots=8):
        self.col, self.ref, self.scheme = _make_pair(flow_slots=flow_slots)
        self.switch = _StubSwitch(num_ports)
        self.snapshots = 0

    def apply(self, event):
        for telem in (self.col, self.ref):
            _apply(telem, self.switch, event)

    def read(self, now):
        """Snapshot both planes; return True when the memo served it."""
        hits = self.col.snapshot_cache_hits
        report = self.col.snapshot(now)
        self.snapshots += 1
        _assert_reports_identical(report, self.ref.snapshot(now))
        assert report.collect_time == now
        col = self.col
        assert col.snapshot_cache_hits + col.snapshot_cache_misses == self.snapshots
        return col.snapshot_cache_hits == hits + 1


def _data(t, egress=1, ingress=0, size=1024, flow=FLOW):
    return ("data", t, flow, egress, ingress, 3, size, False)


class TestSnapshotMemo:
    def test_repeated_read_of_an_unchanged_window_hits(self):
        pair = _Pair()
        pair.apply(_data(T0))
        pair.apply(("pfc", T0 + 5, 2, 0xFF))
        assert not pair.read(T0 + 10)
        assert pair.read(T0 + 10)
        assert pair.read(T0 + 20)  # same epoch, nothing written

    def test_write_after_a_cached_read_misses(self):
        pair = _Pair()
        pair.apply(_data(T0))
        assert not pair.read(T0 + 10)
        assert pair.read(T0 + 10)
        pair.apply(_data(T0 + 20, size=64))  # same epoch: pending, then flushed
        assert not pair.read(T0 + 30)
        assert pair.read(T0 + 30)

    def test_ring_wrap_misses(self):
        pair = _Pair()
        scheme = pair.scheme
        pair.apply(_data(T0))
        assert not pair.read(T0 + 10)
        assert pair.read(T0 + 10)
        # The same bank, a full ring later: the old epoch is reclaimed.
        later = T0 + scheme.num_epochs * scheme.window_ns
        pair.apply(_data(later, egress=2))
        assert not pair.read(later + 10)
        assert pair.read(later + 10)

    def test_a_hit_hands_out_its_own_epoch_list(self):
        pair = _Pair()
        pair.apply(_data(T0))
        pair.apply(_data(T0 + pair.scheme.window_ns, egress=2))
        now = T0 + pair.scheme.window_ns + 10
        first = pair.col.snapshot(now)
        first.epochs.pop()  # a consumer trimming its report
        pair.snapshots += 1
        assert pair.read(now)

    def test_port_status_only_when_a_status_register_was_written(self):
        pair = _Pair()
        pair.apply(_data(T0))
        assert pair.col.snapshot(T0 + 10).port_status == {}
        pair.apply(("pfc", T0 + 20, 2, 0xFFFF))
        report = pair.col.snapshot(T0 + 30)
        assert report.port_status == pair.ref.snapshot(T0 + 30).port_status
        assert report.port_status[2] > 0

    def test_a_polling_read_then_the_collectors_is_one_miss_then_a_hit(self):
        """The polling engine's causality check and the CPU's collection
        read the same snapshot: at one instant, with no write between, the
        engine's read misses and the collector's is served by the memo."""
        net = Network(build_line(num_switches=2, hosts_per_switch=2))
        dep = HawkeyeDeployment(net)
        ref = ReferenceSwitchTelemetry("SW1", dep.config)
        net.switches["SW1"].add_observer(ref)
        engine = PollingEngine(net, dep)
        collector = TelemetryCollector(dep, read_delay_ns=0)
        flow = net.make_flow("H1_0", "H2_0", 20 * KB, usec(1))
        net.start_flow(flow)
        net.run(usec(100))
        now = net.sim.now
        telem = dep.for_switch("SW1")
        hits, misses = telem.snapshot_cache_hits, telem.snapshot_cache_misses
        engine._handle(
            net.switches["SW1"],
            Packet.polling(flow.key, PollingFlag.BOTH, now),
            net.topology.attachment_of("H1_0").port,
        )
        assert telem.snapshot_cache_hits == hits
        assert telem.snapshot_cache_misses == misses + 1
        report = collector.collect("SW1", now)
        assert telem.snapshot_cache_hits == hits + 1
        assert telem.snapshot_cache_misses == misses + 1
        _assert_reports_identical(report, ref.snapshot(now))
        assert report.agg_flows()


@pytest.mark.parametrize("seed", range(4))
def test_interleaved_reads_match_the_reference(seed):
    """Random writes and repeated reads: every snapshot, hit or miss,
    equals the reference's, and every read is counted once."""
    pair = _Pair()
    rng = random.Random(seed)
    _flows, events = _random_stream(
        rng, 4, num_flows=5, num_events=600, max_step_ns=300
    )
    hits = 0
    for event in events:
        pair.apply(event)
        for _ in range(rng.choice([0, 0, 0, 1, 3])):
            now = event[1] + rng.randrange(50)
            hits += pair.read(now)
    assert 0 < hits < pair.snapshots
