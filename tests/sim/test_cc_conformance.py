"""Congestion-control conformance: ECN marking and CNP pacing against
closed forms.

The loop DCQCN (Zhu et al., SIGCOMM 2015) runs, and "Revisiting Network
Support for RDMA" (PAPERS.md) takes as the RoCE baseline, has two
switch/receiver halves checked here:

- **Marking.** A RED-style egress queue marks an arriving ECN-capable
  packet with probability ``pmax · (q − kmin) / (kmax − kmin)`` at depth
  ``q`` between ``kmin`` and ``kmax``.  A queue held at each of five
  depths across that range (its egress paused, every probe packet taken
  back out after its marking decision) must mark a fraction inside the
  two-sided 99 % binomial interval of that probability.
- **CNP pacing.** The receiver answers a CE-marked arrival with a CNP at
  once, but sends at most one CNP per flow per ``CNP_INTERVAL_NS``; on a
  4:1 line-rate incast with DCQCN on, every flow's first CNP leaves
  within one round trip of its first marked arrival, and its CNPs are
  exactly the marked arrivals that come an interval or more after the
  previous one.
- **Rate cut.** The sender answers a CNP by cutting its rate ``R`` to
  ``R·(1 − α/2)``, with ``α = (1 − ALPHA_G)·α₀ + ALPHA_G``, and paces
  data at the new rate; a second CNP within ``RATE_DECREASE_INTERVAL_NS``
  of the cut leaves the rate alone.
"""

import math

import pytest

from repro.sim import (
    ACK_SIZE,
    Network,
    Packet,
    PacketType,
    SimConfig,
    SwitchObserver,
)
from repro.sim.cc import ALPHA_G, RATE_DECREASE_INTERVAL_NS, RECOVERY_INTERVAL_NS
from repro.sim.config import CNP_INTERVAL_NS, ECN_PMAX, PAUSE_QUANTA, EcnConfig
from repro.sim.packet import DATA_PRIORITY, FlowKey
from repro.topology import Topology
from repro.units import KB, gbps, serialization_delay_ns, usec

# DCQCN's RED marking curve as this simulator configures it.
KMIN, KMAX, PMAX = 40 * KB, 160 * KB, 0.2
MTU = 1 * KB
PROBES = 4000
# Five depths, one in the middle of each fifth of (kmin, kmax).
DEPTHS = [KMIN + (KMAX - KMIN) * (2 * i + 1) // 10 // KB * KB for i in range(5)]


def red_probability(q):
    """The closed form, independent of ``EcnConfig``."""
    return PMAX * (q - KMIN) / (KMAX - KMIN)


def binomial_interval(n, p, level=0.99):
    """The two-sided ``level`` interval ``[lo, hi]`` of Binomial(n, p):
    at most ``(1 − level) / 2`` of the mass lies on either side."""
    tail = (1 - level) / 2
    pmf = [
        math.exp(
            math.lgamma(n + 1) - math.lgamma(k + 1) - math.lgamma(n - k + 1)
            + k * math.log(p) + (n - k) * math.log1p(-p)
        )
        for k in range(n + 1)
    ]
    below = 0.0
    lo = 0
    while below + pmf[lo] <= tail:
        below += pmf[lo]
        lo += 1
    above = 0.0
    hi = n
    while above + pmf[hi] <= tail:
        above += pmf[hi]
        hi -= 1
    return lo, hi


def _star(senders, config=None):
    """``senders`` hosts and a receiver ``R`` on one switch, 100G, 1 us."""
    topo = Topology("star")
    topo.add_switch("SW")
    for i, name in enumerate([*senders, "R"], start=1):
        topo.add_host(name, ip=f"10.0.0.{i}")
        topo.add_link(name, "SW", gbps(100), usec(1))
    return Network(topo, config=config or SimConfig())


class _Marks(SwitchObserver):
    """Every data enqueue: the queue depth it met and whether it left the
    enqueue CE-marked."""

    def __init__(self):
        self.seen = []

    def on_egress_enqueue(self, sw, t, pkt, egress, ingress, qd, qb, paused):
        if pkt.ptype is PacketType.DATA:
            self.seen.append((qb, pkt.ce_marked))


class TestEcnMarking:
    @pytest.fixture(scope="class")
    def marks(self):
        net = _star(["S"])
        marks = _Marks()
        net.add_switch_observer(marks)
        sw = net.switches["SW"]
        egress = net.topology.attachment_of("R").port
        # R pauses the egress; with the clock stopped, nothing drains.
        sw.receive(Packet.pfc(DATA_PRIORITY, PAUSE_QUANTA, 0), egress)
        queue = sw.ports[egress].queue(DATA_PRIORITY)
        flow = FlowKey("10.0.0.1", "10.0.0.2", 1000, 4791)
        probes = {}
        for depth in DEPTHS:
            while queue.bytes < depth:
                sw.enqueue(Packet.data(flow, MTU, 0, 0), egress, None)
            assert queue.bytes == depth
            start = len(marks.seen)
            for _ in range(PROBES):
                sw.enqueue(Packet.data(flow, MTU, 0, 0), egress, None)
                queue.bytes -= queue.pkts.pop().size  # hold the depth
            probes[depth] = marks.seen[start:]
        return probes

    def test_the_curve_is_dcqcns_red_line(self):
        ecn = EcnConfig()
        assert (ecn.kmin_bytes, ecn.kmax_bytes, ECN_PMAX) == (KMIN, KMAX, PMAX)
        for q in DEPTHS:
            assert ecn.mark_probability(q) == pytest.approx(red_probability(q))

    @pytest.mark.parametrize("depth", DEPTHS)
    def test_marked_fraction_within_binomial_interval(self, marks, depth):
        assert {q for q, _ in marks[depth]} == {depth}
        probes = [marked for _, marked in marks[depth]]
        assert len(probes) == PROBES
        p = EcnConfig().mark_probability(depth)
        lo, hi = binomial_interval(PROBES, p)
        assert lo <= sum(probes) <= hi, (depth, p, sum(probes) / PROBES)


class _Cnps(SwitchObserver):
    """Every CNP the switch forwards, by flow, at its creation time."""

    def __init__(self):
        self.sent = {}

    def on_egress_enqueue(self, sw, t, pkt, egress, ingress, qd, qb, paused):
        if pkt.ptype is PacketType.CNP:
            self.sent.setdefault(pkt.flow, []).append(pkt.create_time)


class TestCnpPacing:
    SENDERS = ("S1", "S2", "S3", "S4")

    @pytest.fixture(scope="class")
    def incast(self):
        net = _star(self.SENDERS)
        cnps = _Cnps()
        net.add_switch_observer(cnps)
        receiver = net.hosts["R"]
        marked = {}  # flow -> CE-marked arrival times at R
        handle_data = receiver._handle_data

        def on_data(pkt):
            if pkt.ce_marked:
                marked.setdefault(pkt.flow, []).append(receiver.sim.now)
            handle_data(pkt)

        receiver._handle_data = on_data
        for i, name in enumerate(self.SENDERS):
            net.start_flow(net.make_flow(name, "R", 20_000 * KB, 0, src_port=1000 + i))
        net.run(usec(2000))
        return net, marked, cnps.sent

    def test_every_flow_is_marked_and_paced(self, incast):
        _net, marked, sent = incast
        assert len(marked) == len(self.SENDERS)
        assert set(sent) == set(marked)
        assert all(len(times) >= 3 for times in sent.values())

    def test_at_most_one_cnp_per_flow_per_interval(self, incast):
        _net, _marked, sent = incast
        for times in sent.values():
            gaps = [b - a for a, b in zip(times, times[1:])]
            assert min(gaps) >= CNP_INTERVAL_NS

    def test_first_cnp_within_one_rtt_of_first_mark(self, incast):
        _net, marked, sent = incast
        # Base round trip: data out over two hops, the ACK back over two.
        rate = gbps(100)
        rtt = 2 * (
            2 * usec(1)
            + serialization_delay_ns(MTU, rate)
            + serialization_delay_ns(ACK_SIZE, rate)
        )
        for flow, times in sent.items():
            assert 0 <= times[0] - marked[flow][0] <= rtt

    def test_cnps_are_the_marks_an_interval_apart(self, incast):
        _net, marked, sent = incast
        for flow, arrivals in marked.items():
            expected, last = [], None
            for t in arrivals:
                if last is None or t - last >= CNP_INTERVAL_NS:
                    expected.append(t)
                    last = t
            assert sent[flow] == expected


class _Departures(SwitchObserver):
    """Every data packet the switch takes in, at its creation time: the
    instant it left the sender."""

    def __init__(self):
        self.times = []

    def on_egress_enqueue(self, sw, t, pkt, egress, ingress, qd, qb, paused):
        if pkt.ptype is PacketType.DATA:
            self.times.append(pkt.create_time)


class TestRateCut:
    # One recovery tick (alpha decays once, the rate is still at line
    # rate) before the first CNP; both CNPs and the window measured
    # fall before the second tick.
    FIRST_CNP = RECOVERY_INTERVAL_NS + usec(5)
    SECOND_CNP = FIRST_CNP + RATE_DECREASE_INTERVAL_NS // 2
    WINDOW_END = 2 * RECOVERY_INTERVAL_NS

    @pytest.fixture(scope="class")
    def paced(self):
        net = _star(["S"])
        departures = _Departures()
        net.add_switch_observer(departures)
        sender = net.hosts["S"]
        flow = net.make_flow("S", "R", 20_000 * KB, 0)
        net.start_flow(flow)
        for t in (self.FIRST_CNP, self.SECOND_CNP):
            net.sim.schedule_at(t, sender.receive, Packet.cnp(flow.key, t))
        net.run(self.WINDOW_END)
        return sender.bandwidth, departures.times

    def _gaps(self, times, start, end):
        inside = [t for t in times if start < t < end]
        return [b - a for a, b in zip(inside, inside[1:])]

    def test_the_gap_after_a_cnp_is_the_cut_rate(self, paced):
        line_rate, times = paced
        alpha0 = 1 - ALPHA_G  # 1 decayed once by the alpha timer
        alpha = (1 - ALPHA_G) * alpha0 + ALPHA_G
        expected = MTU * 1e9 / (line_rate * (1 - alpha / 2))
        gaps = self._gaps(times, self.FIRST_CNP, self.SECOND_CNP)
        assert len(gaps) > 10
        for gap in gaps:
            assert gap == pytest.approx(expected, abs=1)

    def test_a_second_cnp_inside_the_interval_keeps_the_gap(self, paced):
        _line_rate, times = paced
        before = self._gaps(times, self.FIRST_CNP, self.SECOND_CNP)
        after = self._gaps(times, self.SECOND_CNP, self.WINDOW_END)
        assert len(after) > 10
        assert set(after) == {before[0]}
