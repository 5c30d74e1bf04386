"""Differential tests for the numpy flush path against the reference.

``test_columnar_vs_reference.py`` interleaves queries so often that no
pending queue reaches ``MIN_VECTOR_EVENTS`` and every flush takes the
scalar loop.  Here epochs are long and reads are rare, so banks drain
through :func:`repro.telemetry.vectorflush.flush_pending`; snapshots,
queries and the per-epoch eviction order must still equal the eager
reference's, at table sizes from all-colliding to collision-free.
"""

import random

import pytest

from repro.sim import FlowKey
from repro.telemetry import EpochScheme, HawkeyeSwitchTelemetry, TelemetryConfig, vectorflush
from tests.telemetry.reference import ReferenceSwitchTelemetry
from tests.telemetry.test_columnar_vs_reference import (
    _apply,
    _assert_queries_identical,
    _assert_reports_identical,
    _random_stream,
    _StubSwitch,
)


@pytest.fixture
def vector_flushes(monkeypatch):
    """Record the queue length of every flush that takes the numpy path."""
    lengths = []
    real = vectorflush.flush_pending

    def counting(telem, bank):
        lengths.append(len(bank.pending))
        real(telem, bank)

    monkeypatch.setattr(vectorflush, "flush_pending", counting)
    return lengths


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


@pytest.mark.parametrize(
    "num_events, vector",
    [(vectorflush.MIN_VECTOR_EVENTS - 1, False), (vectorflush.MIN_VECTOR_EVENTS, True)],
)
def test_queue_length_alone_picks_the_flush_path(num_events, vector, vector_flushes):
    """numpy is always there, so the only switch between the scalar loop
    and the numpy path is the pending queue's length; both sides of the
    threshold still equal the reference."""
    num_ports = 4
    config = TelemetryConfig(scheme=EpochScheme(shift=20), flow_slots=8)
    col = HawkeyeSwitchTelemetry("SW", config)
    ref = ReferenceSwitchTelemetry("SW", config)
    switch = _StubSwitch(num_ports)
    rng = random.Random(num_events)
    flows = [FlowKey(f"10.0.0.{i}", "10.0.1.1", 1000 + i, 4791) for i in range(12)]
    # One epoch, data enqueues only: the whole stream is one pending queue.
    events = [
        (
            "data",
            1 + i,
            rng.choice(flows),
            rng.randrange(num_ports),  # egress
            None,  # ingress
            rng.randrange(64),  # queue depth (pkts)
            1024,
            False,
        )
        for i in range(num_events)
    ]
    for event in events:
        _apply(col, switch, event)
        _apply(ref, switch, event)
    now = events[-1][1]
    _assert_reports_identical(col.snapshot(now), ref.snapshot(now))
    assert vector_flushes == ([num_events] if vector else [])
    assert col.flushed_events == num_events


@pytest.mark.parametrize("seed", range(3))
@pytest.mark.parametrize("flow_slots", [1, 8, 4096])
def test_long_epochs_match_reference(seed, flow_slots, vector_flushes):
    num_ports = 4
    scheme = EpochScheme(shift=13)  # 8 us epochs, a ring of 4
    config = TelemetryConfig(scheme=scheme, flow_slots=flow_slots)
    col = HawkeyeSwitchTelemetry("SW", config)
    ref = ReferenceSwitchTelemetry("SW", config)
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

    assert len(vector_flushes) >= 3
    assert min(vector_flushes) >= vectorflush.MIN_VECTOR_EVENTS
    # Most flushed events took the numpy path, not the scalar loop.
    assert sum(vector_flushes) >= 0.8 * col.flushed_events
