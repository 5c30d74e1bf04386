"""The whole-snapshot memo: a re-read of an unchanged window is a hit, and
anything that changes what the CPU would read — a register write or a ring
wrap — is a miss that rebuilds the snapshot.  The polling engine and the
collector share it.  A hit allocates only the report: its epoch tuple,
aggregates and status registers are shared, and a changed epoch shares its
unchanged entries with the previous version.  Every snapshot is checked
against the reference plane."""

import gc
import random
import sys

import pytest

from repro.collection import PollingEngine, TelemetryCollector
from repro.sim import Network, Packet, PollingFlag
from repro.sim.packet import FlowKey, pause_quanta_to_ns
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
        self.last = None  # the latest (columnar, reference) report pair

    def apply(self, event):
        for telem in (self.col, self.ref):
            _apply(telem, self.switch, event)

    def read(self, now):
        """Snapshot both planes; return True when the memo served it."""
        hits = self.col.snapshot_cache_hits
        report = self.col.snapshot(now)
        self.snapshots += 1
        self.last = (report, self.ref.snapshot(now))
        _assert_reports_identical(*self.last)
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

    def test_a_trimmed_report_leaves_the_memo_and_its_siblings_intact(self):
        pair = _Pair()
        pair.apply(_data(T0))
        pair.apply(_data(T0 + pair.scheme.epoch_size_ns, egress=2))
        now = T0 + pair.scheme.epoch_size_ns + 10
        assert not pair.read(now)
        sibling, trimmed = pair.col.snapshot(now), pair.col.snapshot(now)
        pair.snapshots += 2
        shared = sibling.epochs
        assert trimmed.epochs is shared and len(shared) == 2
        full_meters = sibling.agg_meters()
        trimmed.epochs = trimmed.epochs[-1:]  # as the collector truncates
        assert trimmed.agg_meters() == shared[-1].meters != full_meters
        assert trimmed.agg_flows().keys() == shared[-1].flows.keys()
        assert sibling.epochs is shared and len(shared) == 2
        assert sibling.agg_meters() is full_meters
        _assert_reports_identical(sibling, pair.ref.snapshot(now))
        assert pair.read(now)

    def test_unchanged_reads_of_an_idle_switch_allocate_one_block_each(self):
        pair = _Pair()
        pair.apply(_data(T0))
        pair.apply(("pfc", T0 + 5, 2, 0xFF))
        col = pair.col
        nows = [T0 + 10 + i for i in range(200)]
        reports = [None] * len(nows)
        col.snapshot(T0 + 10)  # the miss that builds the window
        gc.disable()
        try:
            before = sys.getallocatedblocks()
            for i, now in enumerate(nows):
                reports[i] = col.snapshot(now)
            allocated = sys.getallocatedblocks() - before - 1  # ``before``
        finally:
            gc.enable()
        assert col.snapshot_cache_hits == len(nows)
        assert allocated <= len(nows)
        for now, report in zip(nows, reports):
            _assert_reports_identical(report, pair.ref.snapshot(now))

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


class TestLazyPortStatus:
    def test_port_status_matches_the_reference_at_every_read_instant(self):
        """Reads before, during and after a pause, after a RESUME, and
        stale ones (an instant before the latest frame): each report's
        ``port_status``, derived only after every frame has arrived, is
        the reference's at that read, in key order too."""
        pair = _Pair()
        pause_ns = pause_quanta_to_ns(0x40, 100e9)
        start = T0 + 100
        reads = []

        def read(now):
            ref = pair.ref.snapshot(now)
            reads.append(
                (now, pair.col.snapshot(now), ref.port_status, ref.payload_bytes())
            )

        pair.apply(_data(T0))
        read(T0 + 50)  # no status register written yet
        pair.apply(("pfc", start, 2, 0x40))
        for now in (start, start + 1, start + pause_ns // 2,
                    start + pause_ns, start + pause_ns + 1):
            read(now)
        pair.apply(("pfc", start + pause_ns + 10, 3, 0x40))
        read(start + pause_ns + 20)
        read(start + 5)  # stale: port 2 paused, port 3 already written
        pair.apply(("pfc", start + pause_ns + 30, 3, 0))  # RESUME
        read(start + pause_ns + 40)
        read(start + pause_ns + 20)  # stale: before the RESUME
        pair.apply(_data(start + pause_ns + 50))
        read(start + pause_ns + 60)
        assert sum(want.get(2, 0) > 0 for _, _, want, _ in reads) == 4
        for now, report, want, want_bytes in reads:
            assert report.payload_bytes() == want_bytes, now
            assert report.port_status == want, now
            assert list(report.port_status) == list(want)

    def test_reads_between_two_frames_share_one_register_copy(self):
        pair = _Pair()
        pair.apply(_data(T0))
        pair.apply(("pfc", T0 + 5, 2, 0xFF))
        first, second = pair.col.snapshot(T0 + 10), pair.col.snapshot(T0 + 20)
        assert first._pause_until is second._pause_until
        pair.apply(("pfc", T0 + 30, 1, 0xFF))
        third = pair.col.snapshot(T0 + 40)
        assert third._pause_until is not first._pause_until
        assert list(first.port_status) == [2]
        assert list(third.port_status) == [2, 1]


def _slot(flow):
    return flow.stable_hash() % 8


OTHER = next(
    key
    for key in (FlowKey("10.0.0.9", "10.0.1.1", port, 4791) for port in range(2000, 2100))
    if _slot(key) != _slot(FLOW)
)
# A flow that evicts FLOW from its slot.
RIVAL = next(
    key
    for key in (FlowKey("10.0.0.8", "10.0.1.1", port, 4791) for port in range(3000, 3100))
    if _slot(key) == _slot(FLOW)
)


class TestEntrySharing:
    def _two_flows(self):
        pair = _Pair()
        pair.apply(_data(T0))
        pair.apply(_data(T0 + 1, egress=2, flow=OTHER))
        now = T0 + 10
        assert not pair.read(now)
        first = pair.col.snapshot(now)
        pair.snapshots += 1
        return pair, first, pair.ref.snapshot(now)

    def test_a_write_to_an_existing_slot_shares_the_untouched_entries(self):
        pair, first, first_ref = self._two_flows()
        pair.apply(_data(T0 + 20))  # FLOW's slot again, egress 1
        assert not pair.read(T0 + 30)
        second = pair.col.snapshot(T0 + 30)
        pair.snapshots += 1
        old, new = first.epochs[-1], second.epochs[-1]
        assert new is not old
        assert new.flows[(OTHER, 2)] is old.flows[(OTHER, 2)]
        assert new.ports[2] is old.ports[2]
        assert new.flows[(FLOW, 1)] is not old.flows[(FLOW, 1)]
        assert new.ports[1] is not old.ports[1]
        assert new.replay_cache is not old.replay_cache
        assert new.entry_bytes == old.entry_bytes
        # The version a delivered report holds is never patched in place.
        _assert_reports_identical(first, first_ref)

    def test_a_new_slot_shares_the_untouched_entries(self):
        pair, first, first_ref = self._two_flows()
        third = next(
            key
            for key in (FlowKey("10.0.0.7", "10.0.1.1", port, 4791) for port in range(3000, 3100))
            if _slot(key) not in (_slot(FLOW), _slot(OTHER))
        )
        pair.apply(_data(T0 + 20, egress=3, flow=third))
        assert not pair.read(T0 + 30)
        old, new = first.epochs[-1], pair.last[0].epochs[-1]
        assert new.flows[(OTHER, 2)] is old.flows[(OTHER, 2)]
        assert new.flows[(FLOW, 1)] is old.flows[(FLOW, 1)]
        assert (third, 3) in new.flows and (third, 3) not in old.flows
        assert not pair.col.evictions
        _assert_reports_identical(first, first_ref)

    def test_an_eviction_rebuilds_the_flow_entries(self):
        pair, first, first_ref = self._two_flows()
        pair.apply(_data(T0 + 20, egress=3, flow=RIVAL))
        assert not pair.read(T0 + 30)
        old, new = first.epochs[-1], pair.last[0].epochs[-1]
        assert pair.col.evictions == 1
        assert new.flows[(OTHER, 2)] is not old.flows[(OTHER, 2)]
        assert new.flows[(FLOW, 1)] is not old.flows[(FLOW, 1)]
        assert new.ports[2] is old.ports[2]  # ports never merge
        _assert_reports_identical(first, first_ref)

    def test_a_write_counts_as_shared_and_an_eviction_as_rebuilt(self):
        pair, _first, _first_ref = self._two_flows()
        col = pair.col

        def split():
            shared, rebuilt = col.epoch_views_shared, col.epoch_views_rebuilt
            assert shared + rebuilt == col.epoch_cache_misses
            return shared, rebuilt

        shared, rebuilt = split()
        pair.apply(_data(T0 + 20))  # FLOW's slot again
        assert not pair.read(T0 + 30)
        assert split() == (shared + 1, rebuilt)
        pair.apply(_data(T0 + 40, egress=3, flow=RIVAL))
        assert not pair.read(T0 + 50)
        assert col.evictions == 1
        assert split() == (shared + 1, rebuilt + 1)


@pytest.mark.parametrize("seed", range(4))
def test_interleaved_reads_match_the_reference(seed):
    """Random writes and repeated reads: every snapshot, hit or miss,
    equals the reference's, and every read is counted once.  Changed
    epochs share unchanged entries and rebuild after an eviction, and no
    report changes after it is read."""
    pair = _Pair()
    rng = random.Random(seed)
    _flows, events = _random_stream(
        rng, 4, num_flows=5, num_events=600, max_step_ns=300
    )
    hits = shared = rebuilt = 0
    seen = {}  # bank -> the view the previous read left
    reads = []
    for event in events:
        pair.apply(event)
        for _ in range(rng.choice([0, 0, 0, 1, 3])):
            now = event[1] + rng.randrange(50)
            hits += pair.read(now)
            reads.append(pair.last)
            for bank in pair.col._banks:
                new, old = bank.mat, seen.get(id(bank))
                if new is not None and old is not None and new is not old:
                    if new.epoch_number == old.epoch_number and any(
                        entry is old.flows.get(key) for key, entry in new.flows.items()
                    ):
                        shared += 1
                    elif bank.evicted:
                        rebuilt += 1
                seen[id(bank)] = new
    assert 0 < hits < pair.snapshots
    assert shared > 0 and rebuilt > 0
    for got, want in reads:
        _assert_reports_identical(got, want)
