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
- **Fixed point.** N long flows into one receiver converge to C/N each,
  every cut takes ``α/2`` off with ``α`` at its steady state, and
  marking alone holds the queue; PFC acts first (``kmin`` = ``xoff``).
- **Queue dominance.** On ``incast-backpressure`` no flow dominates the
  standing queue at the initial congestion port, with DCQCN or without.
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
from repro.experiments import run_scenario
from repro.topology import Topology
from repro.units import KB, gbps, serialization_delay_ns, usec
from repro.workloads import SCENARIO_BUILDERS

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


def alpha_fixed_point(periods):
    """DCQCN's ``α`` at a cut, in steady state, when each CNP is followed by
    ``periods`` alpha-timer periods: the cut adds ``ALPHA_G``, each
    period but the one that saw the CNP decays it by ``1 − ALPHA_G``, so
    ``α = (1 − g)^periods · α + g``."""
    return ALPHA_G / (1 - (1 - ALPHA_G) ** periods)


def _n_to_one(n):
    """``n`` long flows into ``R`` from line rate: the network and each
    flow's sender ``DcqcnState``."""
    senders = [f"S{i}" for i in range(n)]
    net = _star(senders)
    states = {}
    for i, name in enumerate(senders):
        flow = net.make_flow(name, "R", 10**9, 0, src_port=1000 + i)
        net.start_flow(flow)
        states[flow.key] = net.hosts[name].cc_state(flow.key)
    return net, states


class _Bottleneck(SwitchObserver):
    """The bottleneck egress: each sender's bytes and its DCQCN rate at
    every packet, the queue, the first CE mark and CNP, and every PAUSE."""

    def __init__(self, egress, states, window_start):
        self.egress = egress
        self.states = states  # flow -> the sender's DcqcnState (read only)
        self.window_start = window_start
        self.bytes = {}
        self.queue = []
        self.cuts = []  # (time, relative rate cut) seen at the next packet
        self.last_rate = {}
        self.first_mark = self.first_cnp = None
        self.pauses = []

    def on_egress_enqueue(self, sw, t, pkt, egress, ingress, qd, qb, paused):
        if pkt.ptype is PacketType.CNP and self.first_cnp is None:
            self.first_cnp = t
        if pkt.ptype is not PacketType.DATA or egress != self.egress:
            return
        if pkt.ce_marked and self.first_mark is None:
            self.first_mark = t
        rate = self.states[pkt.flow].rate
        last = self.last_rate.get(pkt.flow)
        if last is not None and rate < last:
            self.cuts.append((t, 1 - rate / last))
        self.last_rate[pkt.flow] = rate
        if t >= self.window_start:
            self.bytes[pkt.flow] = self.bytes.get(pkt.flow, 0) + pkt.size
            self.queue.append(qb)

    def on_pfc_sent(self, sw, t, port, priority, quanta):
        if quanta > 0:
            self.pauses.append(t)


class TestFixedPoint:
    """N long flows into one receiver at line rate C: DCQCN's fixed point.

    Each sender's throughput over the second half of a 10 ms run is within
    [0.7, 1.45]·C/N and together they fill the link to within 1 %.  Every
    cut in that half takes ``α/2`` off the rate with ``α`` at its fixed
    point for a CNP every 2 to 20 alpha periods (110 us to 1.1 ms), no
    PAUSE is sent and the queue stays under ``kmax``: marking alone
    balances the cuts.  DCQCN's fairness converges slowly, so the share
    band is wide (measured: 0.75-1.42 at N = 8, 0.98-1.02 at N = 2).

    ``kmin`` = ``xoff`` = 40 KB, so the start is PFC's: at every N the
    first PAUSE leaves before the first CNP, and at N = 2 before even the
    first CE mark (PAUSE at 7.48 us, mark at 7.56 us, CNP at 16.1 us) —
    PFC acts before ECN does, the failure mode "Revisiting Network
    Support for RDMA" names.
    """

    RUN_NS = usec(10_000)
    WINDOW_START = RUN_NS // 2

    @pytest.fixture(scope="class", params=[2, 4, 8])
    def bottleneck(self, request):
        n = request.param
        net, states = _n_to_one(n)
        seen = _Bottleneck(
            net.topology.attachment_of("R").port, states, self.WINDOW_START
        )
        net.add_switch_observer(seen)
        net.run(self.RUN_NS)
        return n, seen

    def _window_s(self):
        return (self.RUN_NS - self.WINDOW_START) / 1e9

    def test_rates_converge_to_the_fair_share(self, bottleneck):
        n, seen = bottleneck
        fair = gbps(100) / n
        assert len(seen.bytes) == n
        shares = [b / self._window_s() / fair for b in seen.bytes.values()]
        assert all(0.7 <= s <= 1.45 for s in shares), sorted(shares)
        assert sum(shares) / n == pytest.approx(1, abs=0.01)

    def test_each_cut_is_half_the_fixed_point_alpha(self, bottleneck):
        _n, seen = bottleneck
        cuts = [c for t, c in seen.cuts if t >= self.WINDOW_START]
        assert len(cuts) >= 10
        lo, hi = alpha_fixed_point(20) / 2, alpha_fixed_point(2) / 2
        assert all(lo <= c <= hi for c in cuts), (min(cuts), max(cuts))

    def test_marking_alone_holds_the_queue(self, bottleneck):
        _n, seen = bottleneck
        assert not [t for t in seen.pauses if t >= self.WINDOW_START]
        assert max(seen.queue) < KMAX

    def test_pfc_fires_before_ecn_acts(self, bottleneck):
        n, seen = bottleneck
        assert seen.pauses and seen.first_cnp is not None
        assert seen.pauses[0] < seen.first_cnp
        if n == 2:
            assert seen.pauses[0] < seen.first_mark

    def test_the_observer_moves_nothing(self):
        def run(observe):
            net, states = _n_to_one(2)
            if observe:
                net.add_switch_observer(
                    _Bottleneck(net.topology.attachment_of("R").port, states, 0)
                )
            net.run(usec(500))
            rates = sorted(s.rate for s in states.values())
            return net.sim.events_run, net.sim.counters(), rates

        assert run(True) == run(False)


class _StandingQueue(SwitchObserver):
    """Each flow's data bytes that joined a standing (non-empty) queue at
    one egress port."""

    def __init__(self, switch, egress):
        self.switch = switch
        self.egress = egress
        self.bytes = {}

    def on_egress_enqueue(self, sw, t, pkt, egress, ingress, qd, qb, paused):
        if (
            qd > 0
            and egress == self.egress
            and sw.name == self.switch
            and pkt.ptype is PacketType.DATA
        ):
            self.bytes[pkt.flow] = self.bytes.get(pkt.flow, 0) + pkt.size


class TestQueueDominance:
    """``incast-backpressure`` seed 1: does one flow dominate the queue?

    The escape hatch in ``diagnosis_correct`` is justified by congestion
    control reshaping a symmetric burst until one flow dominates the
    queue.  At the initial congestion port ``E0_0.P3`` six flows join the
    standing queue, and the largest share is 0.281 with DCQCN on and
    0.282 with it off (two flows at ~0.28, four at 0.10-0.12): under
    twice the fair share either way, and DCQCN moves it by 0.001.
    """

    PORT = ("E0_0", 3)

    def _run(self, observe):
        scenario = SCENARIO_BUILDERS["incast-backpressure"](seed=1)
        assert scenario.truth.initial_port.node == self.PORT[0]
        assert scenario.truth.initial_port.port == self.PORT[1]
        seen = _StandingQueue(*self.PORT)
        if observe:
            scenario.network.switches[self.PORT[0]].add_observer(seen)
        result = run_scenario(scenario)
        digest = (
            result.events_run,
            scenario.network.sim.counters(),
            result.diagnosis().describe(),
        )
        return seen, digest

    @pytest.fixture(scope="class", params=[True, False], ids=["dcqcn", "no-dcqcn"])
    def observed(self, request):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr("repro.sim.host.DCQCN_ENABLED", request.param)
            return request.param, *self._run(observe=True)

    def test_no_flow_dominates_the_standing_queue(self, observed):
        dcqcn, seen, _digest = observed
        total = sum(seen.bytes.values())
        shares = sorted((b / total for b in seen.bytes.values()), reverse=True)
        assert len(shares) == 6
        assert shares[0] == pytest.approx(0.281 if dcqcn else 0.282, abs=5e-4)
        assert shares[0] < 2 / len(shares)

    def test_the_observer_moves_nothing(self, observed):
        dcqcn, _seen, digest = observed
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr("repro.sim.host.DCQCN_ENABLED", dcqcn)
            assert self._run(observe=False)[1] == digest
