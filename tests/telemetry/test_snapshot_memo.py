"""The whole-snapshot memo: a re-read of an unchanged window is a hit, and
anything that changes what the CPU would read — a register write, a ring
wrap, grown port columns, another lookback — is a miss that rebuilds the
snapshot.  Every snapshot is checked against the reference plane."""

import random

import pytest

from repro.sim.packet import FlowKey
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

    def apply(self, event, switch=None):
        for telem in (self.col, self.ref):
            _apply(telem, switch or self.switch, event)

    def read(self, now, lookback=None):
        """Snapshot both planes; return True when the memo served it."""
        hits = self.col.snapshot_cache_hits
        report = self.col.snapshot(now, lookback)
        self.snapshots += 1
        _assert_reports_identical(report, self.ref.snapshot(now, lookback))
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

    def test_flush_by_a_line_rate_query_misses(self):
        pair = _Pair()
        pair.apply(_data(T0))
        assert not pair.read(T0 + 10)
        pair.apply(_data(T0 + 20, egress=2))
        # The in-data-plane analysis drains the queue before the CPU reads.
        assert pair.col.port_paused_num(2, T0 + 25) == 0
        assert not pair.read(T0 + 30)

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

    def test_grow_ports_misses(self):
        pair = _Pair()
        pair.apply(_data(T0), switch=_StubSwitch(2))
        assert not pair.read(T0 + 10)
        assert pair.read(T0 + 10)
        # Ports beyond the captured count grow every bank's columns.
        pair.apply(_data(T0 + 20, egress=5, ingress=3, size=64), switch=_StubSwitch(6))
        assert not pair.read(T0 + 30)
        assert pair.read(T0 + 30)

    def test_lookback_change_misses(self):
        pair = _Pair()
        scheme = pair.scheme
        for i in range(scheme.num_epochs):
            pair.apply(_data(T0 + i * scheme.window_ns, egress=1 + i % 3))
        now = T0 + scheme.num_epochs * scheme.window_ns - 1
        assert not pair.read(now)
        assert not pair.read(now, 1)
        assert pair.read(now, 1)
        assert not pair.read(now, 2)
        assert not pair.read(now)

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


@pytest.mark.parametrize("seed", range(4))
def test_interleaved_reads_match_the_reference(seed):
    """Random writes, repeated reads and lookbacks: every snapshot, hit or
    miss, equals the reference's, and every read is counted once."""
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
            hits += pair.read(now, rng.choice([None, None, 1, 2, 4]))
    assert 0 < hits < pair.snapshots
