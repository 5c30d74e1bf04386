"""Differential property tests: columnar register plane vs the reference.

The columnar plane in :mod:`repro.telemetry.hawkeye` must be *byte-identical*
to the retained pure-Python reference (``tests/telemetry/reference.py``):
same snapshot contents including dict iteration orders (eviction order, slot
order, port/meter first-touch order), same line-rate query answers, same
ring wrap-around semantics.  These tests drive both implementations with
identical randomized packet/PFC streams through the raw observer hooks and
compare everything, interleaving queries mid-stream so pending-queue flushes
happen at arbitrary points.
"""

import pickle
import random

import pytest

from repro.sim.packet import DATA_PRIORITY, FlowKey, Packet, PacketType
from repro.telemetry import EpochScheme, HawkeyeSwitchTelemetry, TelemetryConfig
from repro.telemetry.snapshot import SwitchReport
from tests.telemetry.reference import ReferenceSwitchTelemetry


class _StubPort:
    def __init__(self, bandwidth: float = 100e9) -> None:
        self.bandwidth = bandwidth
        self.peer_is_host = False


class _StubSwitch:
    def __init__(self, num_ports: int) -> None:
        self.ports = {p: _StubPort() for p in range(num_ports)}


def _make_pair(flow_slots=8, shift=12):
    scheme = EpochScheme(shift=shift)
    config = TelemetryConfig(scheme=scheme, flow_slots=flow_slots)
    return (
        HawkeyeSwitchTelemetry("SW", config),
        ReferenceSwitchTelemetry("SW", config),
        scheme,
    )


def _random_stream(rng, num_ports, num_flows, num_events, max_step_ns):
    """A time-ordered mix of data enqueues and PFC frames."""
    flows = [
        FlowKey(f"10.0.0.{i}", f"10.0.1.{i % 3}", 1000 + i, 4791)
        for i in range(num_flows)
    ]
    events = []
    t = rng.randrange(1 << 14)
    for _ in range(num_events):
        t += rng.randrange(max_step_ns)
        if rng.random() < 0.08:
            quanta = rng.choice([0, 1, 0xFF, 0xFFFF])
            events.append(("pfc", t, rng.randrange(num_ports), quanta))
        else:
            events.append(
                (
                    "data",
                    t,
                    rng.choice(flows),
                    rng.randrange(num_ports),  # egress
                    rng.choice([None] + list(range(num_ports))),  # ingress
                    rng.randrange(64),  # queue depth (pkts)
                    rng.choice([64, 1024, 4096]),  # size
                    rng.random() < 0.3,  # port paused at enqueue
                )
            )
    return flows, events


def _apply(telem, switch, event):
    if event[0] == "pfc":
        _, t, port, quanta = event
        telem.on_pfc_received(switch, t, port, DATA_PRIORITY, quanta)
    else:
        _, t, flow, egress, ingress, qdepth, size, paused = event
        pkt = Packet(PacketType.DATA, size, DATA_PRIORITY, flow=flow)
        telem.on_egress_enqueue(switch, t, pkt, egress, ingress, qdepth, 0, paused)


def _assert_reports_identical(got: SwitchReport, want: SwitchReport) -> None:
    """Equality including dict iteration order at every level."""
    assert got.port_status == want.port_status
    assert list(got.port_status) == list(want.port_status)
    assert [e.epoch_number for e in got.epochs] == [e.epoch_number for e in want.epochs]
    for ge, we in zip(got.epochs, want.epochs):
        assert list(ge.flows) == list(we.flows)  # order: evicted, then slots
        assert ge.flows == we.flows
        assert list(ge.ports) == list(we.ports)  # order: first touch
        assert ge.ports == we.ports
        assert list(ge.meters) == list(we.meters)  # order: first touch
        assert ge.meters == we.meters


def _assert_queries_identical(col, ref, flows, num_ports, now, scheme) -> None:
    lookbacks = [None, 1, 2, scheme.num_epochs]
    for lb in lookbacks:
        for port in range(num_ports):
            assert col.port_paused_num(port, now, lb) == ref.port_paused_num(port, now, lb)
            assert col.port_pause_rx(port, now, lb) == ref.port_pause_rx(port, now, lb)
            assert col.port_pause_evidence(port, now, lb) == ref.port_pause_evidence(
                port, now, lb
            )
            for ingress in range(num_ports):
                assert col.meter_volume(ingress, port, now, lb) == ref.meter_volume(
                    ingress, port, now, lb
                )
        for flow in flows:
            assert col.flow_paused_num(flow, now, lb) == ref.flow_paused_num(flow, now, lb)
    unseen = FlowKey("192.168.0.1", "192.168.0.2", 7, 7)
    assert col.flow_paused_num(unseen, now) == ref.flow_paused_num(unseen, now) == 0
    for port in range(num_ports):
        assert col.port_is_paused(port, now) == ref.port_is_paused(port, now)
        assert col.remaining_pause_ns(port, now) == ref.remaining_pause_ns(port, now)


@pytest.mark.parametrize("seed", range(6))
@pytest.mark.parametrize("flow_slots", [1, 2, 8])
def test_randomized_streams_match(seed, flow_slots):
    """Same stream in, identical registers out — snapshots, orders, queries.

    Small ``flow_slots`` forces hash collisions and evictions; the time
    steps push the stream through many ring wrap-arounds (the scheme keeps
    only 4 epochs); queries are interleaved so the columnar plane's pending
    queues flush at arbitrary stream positions.
    """
    num_ports = 4
    col, ref, scheme = _make_pair(flow_slots=flow_slots)
    switch = _StubSwitch(num_ports)
    rng = random.Random(seed)
    flows, events = _random_stream(
        rng, num_ports, num_flows=7, num_events=1200, max_step_ns=400
    )
    check_at = {len(events) // 3, 2 * len(events) // 3}
    now = 0
    for i, event in enumerate(events):
        now = event[1]
        _apply(col, switch, event)
        _apply(ref, switch, event)
        if i in check_at:
            _assert_reports_identical(col.snapshot(now), ref.snapshot(now))
            _assert_queries_identical(col, ref, flows, num_ports, now, scheme)
    assert col.pause_frames_seen == ref.pause_frames_seen
    _assert_queries_identical(col, ref, flows, num_ports, now, scheme)
    for lb in (None, 1, 3):
        _assert_reports_identical(col.snapshot(now, lb), ref.snapshot(now, lb))
    # Evictions in epochs that were overwritten before any read are invisible
    # to the columnar plane (documented deviation); never overcounted.
    assert col.evictions <= ref.evictions


def test_evictions_match_without_wraparound():
    """With every epoch read before being overwritten, counts agree exactly."""
    num_ports = 3
    col, ref, scheme = _make_pair(flow_slots=1, shift=16)
    switch = _StubSwitch(num_ports)
    rng = random.Random(99)
    flows, events = _random_stream(
        rng, num_ports, num_flows=5, num_events=400, max_step_ns=120
    )
    for event in events:
        _apply(col, switch, event)
        _apply(ref, switch, event)
        # Reading every event keeps all pending queues flushed, so no
        # eviction ever disappears into a discarded epoch.
        assert col.evictions == ref.evictions
    assert ref.evictions > 0


@pytest.mark.parametrize("seed", range(3))
def test_columnar_roundtrip_preserves_report(seed):
    """A report survives the shard worker boundary (a plain pickle) with
    contents and orders exact."""
    num_ports = 4
    col, ref, scheme = _make_pair(flow_slots=4)
    switch = _StubSwitch(num_ports)
    rng = random.Random(1000 + seed)
    flows, events = _random_stream(
        rng, num_ports, num_flows=6, num_events=600, max_step_ns=300
    )
    for event in events:
        _apply(col, switch, event)
    report = col.snapshot(events[-1][1])
    rebuilt = pickle.loads(pickle.dumps(report))
    _assert_reports_identical(rebuilt, report)
    assert rebuilt.switch == report.switch
    assert rebuilt.collect_time == report.collect_time
    assert rebuilt.agg_flows() == report.agg_flows()
    assert rebuilt.agg_ports() == report.agg_ports()
    assert rebuilt.agg_meters() == report.agg_meters()


def test_snapshot_cache_serves_repeated_reads():
    """An idle window is re-read from the snapshot cache, identically."""
    num_ports = 2
    col, ref, scheme = _make_pair()
    switch = _StubSwitch(num_ports)
    rng = random.Random(7)
    flows, events = _random_stream(
        rng, num_ports, num_flows=4, num_events=300, max_step_ns=200
    )
    for event in events:
        _apply(col, switch, event)
        _apply(ref, switch, event)
    now = events[-1][1]
    first = col.snapshot(now)
    hits_before = col.snapshot_cache_hits
    second = col.snapshot(now)
    assert col.snapshot_cache_hits == hits_before + 1
    _assert_reports_identical(second, first)
    _assert_reports_identical(second, ref.snapshot(now))


def test_grow_ports_remaps_meters():
    """Port numbers beyond the initial map grow the columns; meters remap."""
    col, ref, scheme = _make_pair(flow_slots=8)
    small_switch = _StubSwitch(2)  # first hook call captures num_ports = 2
    big_switch = _StubSwitch(6)
    flow = FlowKey("10.0.0.1", "10.0.1.1", 1000, 4791)
    t = 1 << 14
    for telem in (col, ref):
        _apply(telem, small_switch, ("data", t, flow, 1, 0, 3, 1024, True))
        _apply(telem, small_switch, ("pfc", t + 10, 1, 0xFF))
        # Egress/ingress 5 exceed the captured port count: _grow_ports path.
        _apply(telem, big_switch, ("data", t + 20, flow, 5, 3, 1, 64, False))
        _apply(telem, big_switch, ("pfc", t + 30, 4, 0xFFFF))
    now = t + 40
    _assert_reports_identical(col.snapshot(now), ref.snapshot(now))
    assert col.meter_volume(0, 1, now) == ref.meter_volume(0, 1, now) == 1024
    assert col.meter_volume(3, 5, now) == ref.meter_volume(3, 5, now) == 64
    assert col.port_pause_rx(4, now) == ref.port_pause_rx(4, now) == 1


def _evicted_by_epoch(col, ref):
    keys = col._keys
    got = {
        bank.epoch_number: [(keys[e[0]], *e[1:]) for e in bank.evicted]
        for bank in col._banks
        if bank.epoch_number >= 0
    }
    want = {
        reg.epoch_number: [
            (
                e.key,
                e.egress_port,
                e.pkt_count,
                e.paused_count,
                e.qdepth_sum_pkts,
                e.byte_count,
                e.qdepth_paused_sum_pkts,
            )
            for e in reg.evicted
        ]
        for reg in ref._rings
        if reg.epoch_number >= 0
    }
    return got, want


@pytest.mark.parametrize("seed", range(3))
@pytest.mark.parametrize("flow_slots", [1, 8, 4096])
def test_long_epochs_match_reference(seed, flow_slots):
    """Long epochs and rare reads: each flush drains hundreds of events
    at once, and snapshots, queries and the per-epoch eviction order still
    equal the eager reference's, from all-colliding to collision-free."""
    num_ports = 4
    scheme = EpochScheme(shift=13)  # 8 us epochs, a ring of 4
    config = TelemetryConfig(scheme=scheme, flow_slots=flow_slots)
    col = HawkeyeSwitchTelemetry("SW", config)
    ref = ReferenceSwitchTelemetry("SW", config)
    flushes = []
    flush = col._flush

    def counting_flush(bank):
        flushes.append(len(bank.pending))
        flush(bank)

    col._flush = counting_flush
    switch = _StubSwitch(num_ports)
    rng = random.Random(seed)
    # ~1,400 events per epoch over ~6 epochs: the ring wraps, and a bank
    # is read only twice mid-stream and once at the end.
    flows, events = _random_stream(
        rng, num_ports, num_flows=150, num_events=8000, max_step_ns=12
    )
    check_at = {len(events) // 3, 2 * len(events) // 3}
    now = 0
    for i, event in enumerate(events):
        now = event[1]
        _apply(col, switch, event)
        _apply(ref, switch, event)
        if i in check_at:
            _assert_reports_identical(col.snapshot(now), ref.snapshot(now))
    _assert_reports_identical(col.snapshot(now), ref.snapshot(now))
    _assert_queries_identical(col, ref, flows, num_ports, now, scheme)
    got, want = _evicted_by_epoch(col, ref)
    assert got == want
    if flow_slots < len(flows):
        assert any(want.values())
    assert col.evictions <= ref.evictions
    # Most flushed events drained in batches of hundreds.
    assert sum(1 for n in flushes if n) >= 3
    assert sum(n for n in flushes if n >= 192) >= 0.8 * col.flushed_events
