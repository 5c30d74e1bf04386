"""Closed-form PFC thresholds: LinkGuardian's Xoff/Xon cells on a 2:1 incast.

LinkGuardian's Tofino setup (SNIPPETS.md) computes its PFC thresholds in
80-byte cells: PAUSE at 500 and RESUME at 460 cells at 100G, 537/497 at
25G and 662/622 at 10G.  Here two senders stream at line rate into one
egress of a single switch, with DCQCN off, so the drain is shared and
each ingress's queued bytes grow at ``rate / 2`` once both streams have
arrived.  The first PAUSE out of an ingress must leave when those bytes
first exceed Xoff, ``Xoff / (rate / 2)`` after both streams arrive (within
two MTU serialization times: occupancy moves a packet at a time); a
RESUME must follow only once they are below Xon; and the upstream host
must put no data on the wire while its pause is in force.  The shape of
the check (a 2:1 incast, the pause instant against the ingress fill rate)
follows the OMNeT++ PFC/RCM model's (PAPERS.md).

The same incast on a two- and three-switch line, with the remote sender
on the first switch, checks the hop-by-hop spread that model describes:
a switch pauses its upstream only after its downstream paused it, each
ingress pauses at its first Xoff crossing, and the headroom (one round
trip of the link plus two MTUs) absorbs what is on the wire, losslessly.
"""

import pytest

from repro.sim import Network, PacketType, SimConfig, SwitchObserver
from repro.sim.config import DATA_PACKET_SIZE, PfcConfig
from repro.sim.packet import pause_quanta_to_ns
from repro.topology import Topology, build_line
from repro.units import KB, gbps, serialization_delay_ns, usec

CELL_BYTES = 80
# line rate (Gbit/s) -> (pause, resume) threshold in cells
LINKGUARDIAN_CELLS = {100: (500, 460), 25: (537, 497), 10: (662, 622)}
SENDERS = ("A", "B")


@pytest.fixture(autouse=True)
def _dcqcn_off(monkeypatch):
    """Every incast here streams at line rate."""
    monkeypatch.setattr("repro.sim.host.DCQCN_ENABLED", False)


class _Ingress(SwitchObserver):
    """First data arrival per ingress, and every PFC frame the switch sends
    with the ingress's queued bytes at that instant."""

    def __init__(self):
        self.first_data = {}
        self.pfc_sent = []

    def on_egress_enqueue(self, sw, t, pkt, egress, ingress, qd, qb, paused):
        if pkt.ptype is PacketType.DATA and ingress is not None:
            self.first_data.setdefault(ingress, t)

    def on_pfc_sent(self, sw, t, port, priority, quanta):
        self.pfc_sent.append((t, port, quanta, sw.ingress_occupancy(port)))


def _watch_host(host, frames, data_tx):
    """Log the PFC frames a host receives and the times it sends data."""
    handle_pfc, transmit_data = host._handle_pfc, host._transmit_data

    def on_pfc(pkt):
        frames.append((host.sim.now, pkt.pause_quanta))
        handle_pfc(pkt)

    def on_data(flow):
        data_tx.append(host.sim.now)
        transmit_data(flow)

    host._handle_pfc, host._transmit_data = on_pfc, on_data


def _incast(gbit):
    bandwidth = gbps(gbit)
    xoff_cells, xon_cells = LINKGUARDIAN_CELLS[gbit]
    topo = Topology("star")
    topo.add_switch("SW")
    for name, ip in (("A", "10.0.0.1"), ("B", "10.0.0.2"), ("R", "10.0.0.3")):
        topo.add_host(name, ip=ip)
        topo.add_link(name, "SW", bandwidth, usec(1))
    config = SimConfig(
        pfc=PfcConfig(xoff_bytes=xoff_cells * CELL_BYTES, xon_bytes=xon_cells * CELL_BYTES),
    )
    net = Network(topo, config=config)
    ingress = _Ingress()
    net.add_switch_observer(ingress, ["SW"])
    hosts = {}
    for i, name in enumerate(SENDERS):
        frames, data_tx = [], []
        _watch_host(net.hosts[name], frames, data_tx)
        hosts[name] = (frames, data_tx)
        net.start_flow(net.make_flow(name, "R", 4000 * KB, 0, src_port=1000 + i))
    net.run(usec(300))
    return net, ingress, hosts


@pytest.mark.parametrize("gbit", sorted(LINKGUARDIAN_CELLS))
class TestLinkGuardianThresholds:
    def test_first_pause_when_an_ingress_first_exceeds_xoff(self, gbit):
        net, ingress, _hosts = _incast(gbit)
        xoff = net.config.pfc.xoff_bytes
        mtu = DATA_PACKET_SIZE
        bandwidth = gbps(gbit)
        ports = {net.topology.attachment_of(name).port for name in SENDERS}
        assert set(ingress.first_data) == ports
        both_arrived = max(ingress.first_data.values())
        expected = both_arrived + xoff * 1e9 / (bandwidth / 2)
        tolerance = 2 * serialization_delay_ns(mtu, bandwidth)
        for port in ports:
            first = next(e for e in ingress.pfc_sent if e[1] == port)
            t, _, quanta, occupancy = first
            assert quanta > 0
            assert xoff < occupancy <= xoff + mtu  # the first crossing
            assert abs(t - expected) <= tolerance

    def test_resume_only_below_xon(self, gbit):
        net, ingress, _hosts = _incast(gbit)
        xon = net.config.pfc.xon_bytes
        mtu = DATA_PACKET_SIZE
        resumes = [e for e in ingress.pfc_sent if e[2] == 0]
        assert len(resumes) >= 2 * len(SENDERS)  # the incast cycles
        for port in {e[1] for e in resumes}:
            sent = [e for e in ingress.pfc_sent if e[1] == port]
            for previous, (_t, _port, quanta, occupancy) in zip([None] + sent, sent):
                if quanta == 0:
                    assert previous is not None and previous[2] > 0  # after a PAUSE
                    assert xon - mtu <= occupancy < xon  # the first fall below

    def test_upstream_sends_no_data_while_paused(self, gbit):
        _net, _ingress, hosts = _incast(gbit)
        bandwidth = gbps(gbit)
        for frames, data_tx in hosts.values():
            assert frames and data_tx
            # Pause windows from the frames alone: a PAUSE holds for its
            # quanta unless refreshed or ended early by a RESUME.
            windows = []
            for i, (t, quanta) in enumerate(frames):
                if quanta == 0:
                    continue
                end = t + pause_quanta_to_ns(quanta, bandwidth)
                if i + 1 < len(frames):
                    end = min(end, frames[i + 1][0])
                windows.append((t, end))
            assert windows
            for start, end in windows:
                assert not [t for t in data_tx if start <= t < end]
            # ... and it does send again once resumed.
            assert data_tx[-1] > windows[0][1]



class _Chain(SwitchObserver):
    """Per (switch, ingress): when its occupancy first exceeded Xoff, its
    peak occupancy and its first PAUSE; per switch: its first PAUSE sent
    and received, and the data packets in and out of its queues."""

    def __init__(self, xoff):
        self.xoff = xoff
        self.crossed = {}
        self.peak = {}
        self.first_pause = {}
        self.pause_tx = {}
        self.pause_rx = {}
        self.data_in = {}
        self.data_out = {}

    def on_egress_enqueue(self, sw, t, pkt, egress, ingress, qd, qb, paused):
        if pkt.ptype is not PacketType.DATA:
            return
        self.data_in[sw.name] = self.data_in.get(sw.name, 0) + 1
        key = (sw.name, ingress)
        occupancy = sw.ingress_occupancy(ingress)
        self.peak[key] = max(self.peak.get(key, 0), occupancy)
        if occupancy > self.xoff:
            self.crossed.setdefault(key, t)

    def on_egress_dequeue(self, sw, t, pkt, egress):
        if pkt.ptype is PacketType.DATA:
            self.data_out[sw.name] = self.data_out.get(sw.name, 0) + 1

    def on_pfc_sent(self, sw, t, port, priority, quanta):
        if quanta > 0:
            self.pause_tx.setdefault(sw.name, t)
            self.first_pause.setdefault((sw.name, port), (t, sw.ingress_occupancy(port)))

    def on_pfc_received(self, sw, t, port, priority, quanta):
        if quanta > 0:
            self.pause_rx.setdefault(sw.name, t)


def _chain_incast(switches, gbit):
    """A 2:1 line-rate incast onto a host of the last switch of a line:
    one sender shares that switch, the other sits on the first, so the
    PAUSE has to travel back hop by hop."""
    xoff_cells, xon_cells = LINKGUARDIAN_CELLS[gbit]
    config = SimConfig(
        pfc=PfcConfig(xoff_bytes=xoff_cells * CELL_BYTES, xon_bytes=xon_cells * CELL_BYTES),
    )
    net = Network(build_line(switches, 2, gbps(gbit), usec(1)), config=config)
    chain = _Chain(config.pfc.xoff_bytes)
    net.add_switch_observer(chain)
    last = f"H{switches}_"
    flows = [
        net.make_flow(src, last + "1", 500 * KB, 0, src_port=1000 + i)
        for i, src in enumerate((last + "0", "H1_0"))
    ]
    for flow in flows:
        net.start_flow(flow)
    net.run(usec(2000))
    return net, chain, flows


@pytest.mark.parametrize("gbit", sorted(LINKGUARDIAN_CELLS))
@pytest.mark.parametrize("switches", (2, 3))
def test_pause_travels_back_hop_by_hop(switches, gbit):
    net, chain, flows = _chain_incast(switches, gbit)
    xoff = net.config.pfc.xoff_bytes
    mtu = DATA_PACKET_SIZE
    headroom = 2 * usec(1) * gbps(gbit) / 1e9 + 2 * mtu
    names = [f"SW{i}" for i in range(1, switches + 1)]
    # Every switch pauses its upstream; all but the last only after its
    # downstream paused it.
    assert set(chain.pause_tx) == set(names)
    for name in names[:-1]:
        assert chain.pause_tx[name] >= chain.pause_rx[name]
    # The first PAUSE out of an ingress leaves at its first Xoff crossing.
    assert chain.first_pause and set(chain.first_pause) == set(chain.crossed)
    for key, (t, occupancy) in chain.first_pause.items():
        assert t == chain.crossed[key]
        assert xoff < occupancy <= xoff + mtu
    # Headroom absorbs what was on the wire; nothing is dropped.
    assert max(chain.peak.values()) <= xoff + headroom
    assert chain.data_in == chain.data_out
    for flow in flows:
        assert flow.completed and flow.bytes_sent == flow.size
