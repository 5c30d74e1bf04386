"""SwitchReport aggregation and size-accounting tests."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.sim import FlowKey
from repro.telemetry import (
    FLOW_ENTRY_BYTES,
    METER_ENTRY_BYTES,
    PORT_ENTRY_BYTES,
    PORT_STATUS_BYTES,
    EpochData,
    FlowEntry,
    PortEntry,
    SwitchReport,
)


def key(i):
    return FlowKey("10.0.0.1", "10.0.0.2", 1000 + i, 4791)


def entry(i, port=1, pkts=10, paused=2, qd=30, size=10_000):
    return FlowEntry(
        key=key(i), egress_port=port, pkt_count=pkts,
        paused_count=paused, qdepth_sum_pkts=qd, byte_count=size,
    )


def two_epoch_report():
    rep = SwitchReport(switch="SW", collect_time=100)
    e0 = EpochData(epoch_number=0)
    e0.flows[(key(1), 1)] = entry(1, pkts=10, paused=2)
    e0.ports[1] = PortEntry(port=1, pkt_count=10, paused_count=2, qdepth_sum_pkts=40)
    e0.meters[(2, 1)] = 5000
    e1 = EpochData(epoch_number=1)
    e1.flows[(key(1), 1)] = entry(1, pkts=6, paused=1)
    e1.flows[(key(2), 1)] = entry(2, pkts=3, paused=0)
    e1.ports[1] = PortEntry(port=1, pkt_count=9, paused_count=1, qdepth_sum_pkts=18)
    e1.meters[(2, 1)] = 3000
    rep.epochs = [e0, e1]
    rep.port_status = {1: 5000, 2: 0}
    return rep


class TestAggregation:
    def test_agg_flows_sums_epochs(self):
        rep = two_epoch_report()
        agg = rep.agg_flows()
        assert agg[(key(1), 1)].pkt_count == 16
        assert agg[(key(1), 1)].paused_count == 3
        assert agg[(key(2), 1)].pkt_count == 3

    def test_agg_ports_sums_epochs(self):
        agg = two_epoch_report().agg_ports()
        assert agg[1].pkt_count == 19
        assert agg[1].paused_count == 3
        assert agg[1].qdepth_sum_pkts == 58

    def test_agg_meters_sums_epochs(self):
        assert two_epoch_report().agg_meters() == {(2, 1): 8000}

    def test_flow_paused_count(self):
        rep = two_epoch_report()
        assert rep.flow_paused_count(key(1)) == 3
        assert rep.flow_paused_count(key(1), egress_port=1) == 3
        assert rep.flow_paused_count(key(1), egress_port=9) == 0

    def test_avg_qdepth(self):
        agg = two_epoch_report().agg_ports()
        assert agg[1].avg_qdepth_pkts() == pytest.approx(58 / 19)

    def test_merge_rejects_different_flows(self):
        with pytest.raises(ValueError):
            entry(1).merge(entry(2))


class TestSizes:
    def test_entry_sizes(self):
        assert FLOW_ENTRY_BYTES == 30
        assert PORT_ENTRY_BYTES == 17
        assert METER_ENTRY_BYTES == 6
        assert PORT_STATUS_BYTES == 5

    def test_payload_counts_only_nonempty(self):
        rep = two_epoch_report()
        expected = 3 * FLOW_ENTRY_BYTES + 2 * PORT_ENTRY_BYTES + 2 * METER_ENTRY_BYTES + 2 * PORT_STATUS_BYTES
        assert rep.payload_bytes() == expected

    def test_full_dump_dominates_payload(self):
        rep = two_epoch_report()
        full = SwitchReport.full_dump_bytes(flow_slots=4096, num_ports=64, num_epochs=2)
        assert full > rep.payload_bytes()

    def test_full_dump_formula(self):
        full = SwitchReport.full_dump_bytes(flow_slots=10, num_ports=4, num_epochs=2)
        per_epoch = 10 * FLOW_ENTRY_BYTES + 4 * PORT_ENTRY_BYTES + 16 * METER_ENTRY_BYTES
        assert full == 2 * per_epoch + 4 * PORT_STATUS_BYTES

    @given(st.integers(min_value=1, max_value=16), st.integers(min_value=1, max_value=128))
    def test_full_dump_monotone(self, epochs, ports):
        a = SwitchReport.full_dump_bytes(1024, ports, epochs)
        b = SwitchReport.full_dump_bytes(1024, ports, epochs + 1)
        assert b > a
