"""Anomaly scenario builders (§2.1 / §4.1).

Each builder crafts one of the paper's representative RDMA NPAs on a
concrete topology, schedules the traffic that causes it, and records the
ground truth used for precision/recall scoring:

- **Incast back-pressure** (Figure 1a): synchronized line-rate micro-bursts
  converge on one host; PFC spreads hop-by-hop and pauses a victim flow
  that never traverses the congestion point.
- **PFC storm** (Figure 1b): a host continuously injects PAUSE frames
  (broken NIC / slow receiver); innocent traffic toward it freezes the
  fabric upstream.
- **Initiator-in-loop deadlock** (Figure 1c): a routing misconfiguration
  creates a cyclic buffer dependency on a 4-switch ring; a short burst at
  a ring port closes the pause cycle permanently.
- **Initiator-out-of-loop deadlock** (Figure 1d): same CBD, but the pause
  cycle is closed by host PFC injection (or host-port incast) outside the
  loop.
- **Normal flow contention**: queueing without any PFC (ample buffers).

Deadlocks run on the ring topology — the CBD substrate the paper's own
Figure 1(c)/(d) depicts — while the other anomalies run on the fat-tree
(K=4, 20 switches) of §4.1.  Sizes are in the hundreds of KB (the paper's
MB-scale bursts scaled ~1/1000 for simulation speed; PFC dynamics depend on
rates and thresholds, not absolute sizes).

Every builder, and the fuzzer's :class:`repro.fuzz.ScenarioGenome`, lays
its traffic down through one kit: :func:`start_flows`, :func:`inject_pfc`,
:func:`cbd_ring_routing` and :func:`circulation_flows`.
"""

from __future__ import annotations

import random
from typing import Iterable, List, Optional, Sequence, Set, Tuple, Union

from ..core.report import AnomalyType
from ..sim.config import PfcConfig, SimConfig
from ..sim.flow import Flow
from ..sim.network import Network
from ..topology.builders import build_fat_tree, build_ring
from ..topology.graph import PortRef, Topology
from ..topology.routing import RoutingTable, make_ring_cbd_routes
from ..units import KB, msec, usec
from .distributions import FlowSizeDistribution, PoissonArrivals
from .scenario import GroundTruth, Scenario

BACKGROUND_SCALE = 1e-3  # documented size scale for background flows


def _config(seed: int, base: Optional[SimConfig] = None) -> SimConfig:
    config = base if base is not None else SimConfig()
    config.seed = seed
    return config


def add_background_traffic(
    network: Network,
    seed: int,
    load: float,
    duration_ns: int,
    start_ns: int = 0,
    exclude_hosts: Optional[Set[str]] = None,
    src_port_base: int = 30000,
) -> List[Flow]:
    """Sprinkle Poisson background flows over the fabric at ``load``."""
    if load <= 0:
        return []
    exclude = exclude_hosts or set()
    hosts = [h.name for h in network.topology.hosts if h.name not in exclude]
    bandwidth = network.hosts[hosts[0]].bandwidth or 12.5e9
    sizes = FlowSizeDistribution(scale=BACKGROUND_SCALE)
    arrivals = PoissonArrivals(sizes, load=load, host_bandwidth=bandwidth, seed=seed)
    flows: List[Flow] = []
    for i, (t, src, dst, size) in enumerate(
        arrivals.generate(hosts, duration_ns, start_ns=start_ns)
    ):
        flow = network.make_flow(src, dst, size, t, src_port=src_port_base + i)
        network.start_flow(flow)
        flows.append(flow)
    return flows


# ---------------------------------------------------------------------------
# The traffic kit
# ---------------------------------------------------------------------------


def start_flows(
    net: Network,
    sources: Sequence[str],
    dst: str,
    size: Union[int, Sequence[int]],
    start_ns: int,
    port: int = 11000,
    rng: Optional[random.Random] = None,
    jitter_ns: int = 0,
    stagger_ns: int = 0,
    rate: Optional[float] = None,
) -> List[Flow]:
    """Start one flow per source toward ``dst``, in order, and return them.

    Flow ``i`` leaves ``sources[i]`` on ``src_port=port + i`` at
    ``start_ns`` plus one ``rng.randrange(jitter_ns)`` draw — or plus
    ``i * stagger_ns`` without an ``rng``.  ``size`` is one value or one
    per source; ``rate`` caps each flow (application-limited) at that
    fraction of its host's line rate.  A victim is a one-source call on
    port 12000.
    """
    sizes = [size] * len(sources) if isinstance(size, int) else size
    flows = []
    for i, (src, nbytes) in enumerate(zip(sources, sizes)):
        offset = rng.randrange(jitter_ns) if rng is not None else i * stagger_ns
        flow = net.make_flow(src, dst, nbytes, start_ns + offset, src_port=port + i)
        if rate is not None:
            flow.max_rate = rate * net.hosts[src].bandwidth
        net.start_flow(flow)
        flows.append(flow)
    return flows


def inject_pfc(net: Network, host: str, start_ns: int, duration_ns: int) -> None:
    """From ``start_ns`` on, ``host`` floods PAUSE frames for ``duration_ns``."""
    net.sim.schedule(
        start_ns, lambda: net.hosts[host].start_pfc_injection(duration_ns)
    )


def cbd_ring_routing(
    topo: Topology, switches: int, hosts_per_switch: int
) -> RoutingTable:
    """Clockwise routes on a ``build_ring`` fabric: the CBD misconfiguration."""
    routing = RoutingTable(topo)
    ring = [f"SW{i}" for i in range(1, switches + 1)]
    dst_ips = {
        sw: [topo.host_ip(f"H{i + 1}_{j}") for j in range(hosts_per_switch)]
        for i, sw in enumerate(ring)
    }
    make_ring_cbd_routes(routing, ring, dst_ips)
    return routing


def circulation_flows(
    net: Network, switches: int = 4, rate: float = 0.3
) -> List[Flow]:
    """One two-hop clockwise flow per ring switch: the buffer dependency.

    Each ring link carries two of them, so they are rate-capped
    (application-limited) to ``rate`` of line rate apiece — the CBD is
    benign until something else congests a ring port, exactly as in
    Figure 1(c)/(d).
    """
    return [
        flow
        for i in range(switches)
        for flow in start_flows(
            net, [f"H{i + 1}_0"], f"H{(i + 2) % switches + 1}_0", 5_000 * KB,
            usec(10), port=13000 + i, rate=rate,
        )
    ]


def _fat_tree(
    seed: int, config: Optional[SimConfig], k: int = 4, headroom: bool = True
) -> Tuple[Topology, Network]:
    """K-ary fat-tree fabric; with ``headroom`` and no caller config, the
    80 KB Xoff ingress headroom the incast builders share."""
    topo = build_fat_tree(k=k)
    cfg = _config(seed, config)
    if config is None and headroom:
        cfg.pfc = PfcConfig(xoff_bytes=80 * KB, xon_bytes=40 * KB)
    return topo, Network(topo, config=cfg)


def _finish(
    net: Network,
    name: str,
    seed: int,
    truth: GroundTruth,
    victims: List[Flow],
    duration_ns: int,
    description: str,
    load: float = 0.0,
    quiet_hosts: Iterable[str] = (),
) -> Scenario:
    """Sprinkle background ``load`` off the anomaly's hosts and wrap up."""
    add_background_traffic(
        net, seed + 1000, load, duration_ns, exclude_hosts=set(quiet_hosts)
    )
    return Scenario(
        name=f"{name}-seed{seed}",
        network=net,
        truth=truth,
        victims=victims,
        duration_ns=duration_ns,
        description=description,
    )


# ---------------------------------------------------------------------------
# PFC back-pressure by incast micro-bursts (Figure 1a)
# ---------------------------------------------------------------------------


def incast_backpressure_scenario(
    seed: int = 1,
    load: float = 0.0,
    num_bursts: int = 6,
    burst_size: int = 700 * KB,
    duration_ns: int = msec(4),
    config: Optional[SimConfig] = None,
) -> Scenario:
    """Synchronized micro-bursts into one host; victim off the burst path."""
    # Moderately deep ingress headroom (80 KB Xoff): hop-level queues grow
    # enough that the victim's degradation clearly crosses even the
    # strictest detection threshold the paper sweeps (500% of RTT).
    topo, net = _fat_tree(seed, config)
    target = "H0_0_0"
    burst_sources = ["H1_0_0", "H1_0_1", "H1_1_0", "H1_1_1", "H2_0_0", "H2_0_1"]
    burst_sources = burst_sources[:num_bursts]
    culprits = start_flows(net, burst_sources, target, burst_size, usec(40),
                           rng=random.Random(seed), jitter_ns=usec(5))

    # Victim: same destination edge switch, different destination host — it
    # shares the paused upstream ports but never the congested egress.  Long
    # enough (2 MB ~ 160 us at line rate) to span the burst period.
    victims = start_flows(net, ["H0_1_0"], "H0_0_1", 2_000 * KB, usec(10), port=12000)

    truth = GroundTruth(
        anomaly=AnomalyType.MICRO_BURST_INCAST,
        culprit_flows=[f.key for f in culprits],
        initial_port=topo.attachment_of(target),
    )
    return _finish(
        net, "incast-backpressure", seed, truth, victims, duration_ns,
        "Synchronized micro-bursts into H0_0_0 back-pressure the pod.",
        load, {target, "H0_0_1", "H0_1_0", *burst_sources},
    )


# ---------------------------------------------------------------------------
# PFC storm by host injection (Figure 1b)
# ---------------------------------------------------------------------------


def pfc_storm_scenario(
    seed: int = 1,
    load: float = 0.0,
    storm_duration_ns: int = msec(3),
    duration_ns: int = msec(4),
    config: Optional[SimConfig] = None,
) -> Scenario:
    """A host floods PAUSE frames; innocent senders freeze the fabric."""
    topo, net = _fat_tree(seed, config, headroom=False)
    injector = "H0_0_0"
    # Innocent traffic toward the injecting host keeps the frozen queues fed.
    # Two flows per source (distinct 5-tuples) so the ECMP spread covers both
    # aggregation switches of the destination pod.  Application-limited:
    # 6 x 15% of line rate stays below the host link capacity, so the
    # traffic is innocent until the storm.
    innocents = ["H1_0_0", "H1_1_0", "H2_0_0"]
    start_flows(net, [src for src in innocents for _ in range(2)], injector,
                400 * KB, usec(20), rate=0.15)
    victims = start_flows(net, ["H0_1_0"], "H0_0_1", 2_000 * KB, usec(10), port=12000)
    inject_pfc(net, injector, usec(30), storm_duration_ns)

    truth = GroundTruth(
        anomaly=AnomalyType.PFC_STORM,
        injecting_host=injector,
        initial_port=topo.attachment_of(injector),
    )
    return _finish(
        net, "pfc-storm", seed, truth, victims, duration_ns,
        f"{injector} continuously injects PFC PAUSE frames.",
        load, {injector, "H0_0_1", "H0_1_0", *innocents},
    )


# ---------------------------------------------------------------------------
# Contention-masked PFC storm (fuzzer-promoted; not in the paper's Table 2)
# ---------------------------------------------------------------------------


def contention_masked_storm_scenario(
    seed: int = 1,
    num_bursts: int = 5,
    burst_size: int = 500 * KB,
    storm_duration_ns: int = msec(3),
    duration_ns: int = msec(4),
    config: Optional[SimConfig] = None,
) -> Scenario:
    """A host injects PAUSE frames *while* an incast converges on its port.

    Discovered by the coverage-guided scenario fuzzer (``repro.fuzz``):
    the terminal port of the PFC provenance shows host-injection evidence
    (paused, host peer) *and* positive contention contributors at the same
    time — a signal combination outside Table 2 that the original
    signature rows collapsed into plain flow contention, blaming only the
    masking flows and never the broken NIC.
    """
    topo, net = _fat_tree(seed, config)
    injector = "H0_0_0"
    burst_sources = ["H1_0_0", "H1_0_1", "H1_1_0", "H2_0_0", "H2_1_0"]
    culprits = start_flows(net, burst_sources[:num_bursts], injector, burst_size,
                           usec(40), rng=random.Random(seed), jitter_ns=usec(5))

    # The storm starts *after* the bursts land: the converging traffic has
    # already queued unpaused at the port (so the replay sees positive
    # contention contributors there) when the host freezes it with PAUSE
    # injection.  Injection-first ordering would exclude every burst packet
    # as paused and collapse the case into a plain storm.
    inject_pfc(net, injector, usec(80), storm_duration_ns)
    victims = start_flows(net, ["H0_1_0"], "H0_0_1", 2_000 * KB, usec(10), port=12000)

    truth = GroundTruth(
        anomaly=AnomalyType.CONTENTION_MASKED_STORM,
        injecting_host=injector,
        culprit_flows=[f.key for f in culprits],
        initial_port=topo.attachment_of(injector),
    )
    return _finish(
        net, "contention-masked-storm", seed, truth, victims, duration_ns,
        f"{injector} injects PFC PAUSE frames while an incast converges "
        "on its port: injection masked by contention.",
    )


# ---------------------------------------------------------------------------
# Deadlocks on the ring CBD (Figures 1c, 1d)
# ---------------------------------------------------------------------------


def _ring_network(
    seed: int, config: Optional[SimConfig], hosts_per_switch: int = 4
) -> Tuple[Topology, Network]:
    """Ring-4 fabric with clockwise (CBD) routing misconfiguration."""
    topo = build_ring(num_switches=4, hosts_per_switch=hosts_per_switch)
    routing = cbd_ring_routing(topo, 4, hosts_per_switch)
    cfg = _config(seed, config)
    # Deadlock formation requires the initial line-rate burst to out-run ECN
    # throttling; raise the marking threshold accordingly (the queues of
    # interest are frozen by PFC, not shaped by ECN, once the cycle closes).
    cfg.ecn.kmin_bytes = max(cfg.ecn.kmin_bytes, 120 * KB)
    cfg.ecn.kmax_bytes = max(cfg.ecn.kmax_bytes, 400 * KB)
    # Shallow PFC headroom with wide hysteresis: the cascade closes the
    # cycle before the initiating burst ends, and the ring-destined bytes
    # stuck above Xon keep every ring ingress asserting PAUSE — making the
    # deadlock persistent, as in Figure 1(c).
    cfg.pfc = PfcConfig(xoff_bytes=30 * KB, xon_bytes=5 * KB)
    return topo, Network(topo, routing=routing, config=cfg)


def _ring_port(topo: Topology, src_switch: str, dst_switch: str) -> PortRef:
    for port, remote in topo.neighbors(src_switch):
        if remote.node == dst_switch:
            return PortRef(src_switch, port)
    raise ValueError(f"no ring link {src_switch}->{dst_switch}")


def _ring_loop_ports(topo: Topology) -> List[PortRef]:
    ring = ["SW1", "SW2", "SW3", "SW4"]
    return [
        _ring_port(topo, ring[i], ring[(i + 1) % 4]) for i in range(4)
    ]


def in_loop_deadlock_scenario(
    seed: int = 1,
    burst_size: int = 600 * KB,
    duration_ns: int = msec(5),
    config: Optional[SimConfig] = None,
) -> Scenario:
    """Short burst at a ring port closes the pause cycle (Figure 1c)."""
    topo, net = _ring_network(seed, config)
    # 0.4 of line rate apiece puts 0.8 standing load on every ring link:
    # once the micro-burst closes the pause cycle, the circulating bytes
    # alone hold each ring ingress above Xon, so the wedge is
    # self-sustaining rather than sensitive to same-instant event order.
    circulation = circulation_flows(net, rate=0.4)

    # Micro-bursts over the SW2->SW3 ring link: local hosts on SW2 blast a
    # host on SW3 — the in-loop initial congestion point.
    culprits = start_flows(net, ["H2_1", "H2_2", "H2_3"], "H3_1", burst_size,
                           usec(50), stagger_ns=usec(1))

    # Root causes: the micro-bursts, plus the two circulation flows whose
    # packets genuinely occupy the initially congested ring queue (F1 from
    # SW1 and F2 from SW2 both traverse the SW2->SW3 link).
    truth = GroundTruth(
        anomaly=AnomalyType.IN_LOOP_DEADLOCK,
        culprit_flows=[f.key for f in culprits + circulation[:2]],
        initial_port=_ring_port(topo, "SW2", "SW3"),
        loop_ports=_ring_loop_ports(topo),
    )
    return _finish(
        net, "in-loop-deadlock", seed, truth, circulation, duration_ns,
        "CBD ring; in-loop micro-burst at SW2->SW3 causes deadlock.",
    )


def out_of_loop_deadlock_scenario(
    seed: int = 1,
    injection: bool = True,
    duration_ns: int = msec(5),
    config: Optional[SimConfig] = None,
) -> Scenario:
    """PFC injected (or incast) outside the CBD closes the cycle (Figure 1d)."""
    topo, net = _ring_network(seed, config)
    circulation = circulation_flows(net)

    target = "H2_1"
    # Remote traffic toward the target keeps SW2's ring ingress loaded; it is
    # innocent and application-limited (the ring stays uncongested until the
    # injection/incast below).
    feeders = start_flows(net, ["H1_1", "H1_2"], target, 800 * KB, usec(20),
                          rate=0.25)

    if injection:
        inject_pfc(net, target, usec(40), msec(4))
        culprits: List[Flow] = []
        desc = f"CBD ring; {target} injects PFC, deadlocking the loop."
    else:
        # Out-of-loop contention: local incast onto the target's host port,
        # long enough to hold the cycle closed past the detection window.
        culprits = start_flows(net, ["H2_2", "H2_3"], target, 4_000 * KB,
                               usec(40), port=11500, stagger_ns=usec(1))
        culprits += feeders
        desc = f"CBD ring; incast at {target}'s port deadlocks the loop."

    truth = GroundTruth(
        anomaly=AnomalyType.OUT_OF_LOOP_DEADLOCK_INJECTION if injection
        else AnomalyType.OUT_OF_LOOP_DEADLOCK_CONTENTION,
        culprit_flows=[f.key for f in culprits],
        injecting_host=target if injection else None,
        initial_port=topo.attachment_of(target),
        loop_ports=_ring_loop_ports(topo),
    )
    variant = "inj" if injection else "cont"
    return _finish(
        net, f"out-of-loop-deadlock-{variant}", seed, truth,
        circulation + feeders, duration_ns, desc,
    )


# ---------------------------------------------------------------------------
# Normal flow contention (no PFC)
# ---------------------------------------------------------------------------


def normal_contention_scenario(
    seed: int = 1,
    load: float = 0.0,
    duration_ns: int = msec(3),
    config: Optional[SimConfig] = None,
) -> Scenario:
    """Plain intra-queue contention with buffers ample enough to avoid PFC."""
    cfg = _config(seed, config)
    # Deep-buffer regime: congestion queues without ever crossing Xoff.
    cfg.pfc = PfcConfig(xoff_bytes=4_000 * KB, xon_bytes=2_000 * KB)
    cfg.ecn.kmin_bytes = 400 * KB
    cfg.ecn.kmax_bytes = 1_200 * KB
    topo, net = _fat_tree(seed, cfg)

    target = "H0_0_0"
    sources = ["H1_0_0", "H1_1_0", "H2_0_0", "H2_1_0", "H1_0_1", "H2_0_1"]
    culprits = start_flows(net, sources, target, 800 * KB, usec(30),
                           stagger_ns=usec(1))

    # Victim shares the congested egress queue with the culprits; it starts
    # mid-burst so its packets see the full backlog.
    victims = start_flows(net, ["H3_0_0"], target, 400 * KB, usec(60), port=12000)

    truth = GroundTruth(
        anomaly=AnomalyType.NORMAL_CONTENTION,
        culprit_flows=[f.key for f in culprits],
        initial_port=topo.attachment_of(target),
    )
    return _finish(
        net, "normal-contention", seed, truth, victims, duration_ns,
        "Six senders share H0_0_0's queue; buffers deep enough for no PFC.",
        load, {target, "H3_0_0", *sources},
    )


# ---------------------------------------------------------------------------
# LoRDMA-style low-rate attack (§2.1: "PFC backpressure ... can also be
# potentially exploited by attackers, such as LoRDMA attacks")
# ---------------------------------------------------------------------------


def lordma_attack_scenario(
    seed: int = 1,
    pulse_size: int = 400 * KB,
    pulse_interval_ns: int = usec(400),
    num_pulses: int = 6,
    duration_ns: int = msec(4),
    config: Optional[SimConfig] = None,
) -> Scenario:
    """Periodic synchronized micro-burst pulses with a low *average* rate.

    Each pulse briefly overwhelms the target's ToR port and fires a PFC
    back-pressure wave that pauses the victim; between pulses the network
    looks healthy, so rate-based monitoring sees nothing unusual.  Hawkeye
    still catches it: the victim's inflated RTT triggers polling during a
    pulse, and the telemetry epochs holding the pulse identify the attack
    flows as the contention contributors.
    """
    topo, net = _fat_tree(seed, config)
    rng = random.Random(seed)
    target = "H0_0_0"
    attackers = ["H1_0_0", "H1_1_0", "H2_0_0", "H2_1_0", "H1_0_1", "H2_0_1"]
    attack_flows = []
    for pulse in range(num_pulses):
        attack_flows += start_flows(
            net, attackers, target, pulse_size, usec(40) + pulse * pulse_interval_ns,
            port=11000 + pulse * len(attackers), rng=rng, jitter_ns=usec(2),
        )

    # The target of the attack: a moderate-rate (application-limited)
    # production flow — LoRDMA degrades well-behaved tenants covertly.
    victims = start_flows(net, ["H0_1_0"], "H0_0_1", 3_000 * KB, usec(10),
                          port=12000, rate=0.6)

    truth = GroundTruth(
        anomaly=AnomalyType.MICRO_BURST_INCAST,
        culprit_flows=[f.key for f in attack_flows],
        initial_port=topo.attachment_of(target),
    )
    return _finish(
        net, "lordma-attack", seed, truth, victims, duration_ns,
        "Low-rate periodic burst pulses (LoRDMA-style) covertly pause "
        f"the victim via PFC waves from {target}'s ToR.",
    )


# ---------------------------------------------------------------------------
# Fleet-scale incast: every pod busy, one diagnosed victim (sharding workload)
# ---------------------------------------------------------------------------


def fleet_incast_scenario(
    seed: int = 1,
    k: int = 8,
    burst_size: int = 400 * KB,
    local_burst_size: int = 300 * KB,
    duration_ns: int = msec(4),
    config: Optional[SimConfig] = None,
) -> Scenario:
    """Datacenter-scale incast: a K-ary fat-tree with every pod under load.

    Pod 0 reproduces the Figure 1a anomaly — remote micro-bursts converge
    on ``H0_0_0`` and back-pressure an innocent victim flow — while every
    other pod runs an independent intra-pod incast of its own.  The
    per-pod incasts never share a queue with the diagnosed victim; they
    exist to spread simulation work uniformly over the fabric, which is
    exactly the load shape the sharded runner
    (:mod:`repro.experiments.shardrun`) partitions by pod.  K=8 is the
    aggregate-throughput benchmark; K=16 is the hosts-by-flows frontier.
    """
    topo, net = _fat_tree(seed, config, k=k)
    rng = random.Random(seed)

    # The diagnosed anomaly, pod 0: cross-pod senders burst into H0_0_0
    # (the incast_backpressure_scenario shape, scaled with K).  One
    # source per edge of pods 1 and 2 — K senders — so the PFC cascade
    # covers every aggregation switch of pod 0 even though ECMP spreads
    # the bursts over K/2 of them; with the paper's K=4 pod the original
    # six senders achieve the same coverage.
    target = "H0_0_0"
    burst_sources = [f"H{p}_{e}_0" for p in (1, 2) for e in range(k // 2)]
    culprits = start_flows(net, burst_sources, target, burst_size, usec(40),
                           rng=rng, jitter_ns=usec(5))
    victims = start_flows(net, ["H0_1_0"], "H0_0_1", 2_000 * KB, usec(10), port=12000)

    # Background anomalies, pods 1..K-1: an intra-pod incast per pod
    # (sources on edges 1 and 2, sink on edge 0).  Uniform per-pod load —
    # no queue is shared with pod 0's victim.
    port = 11000 + len(burst_sources)
    for pod in range(1, k):
        local = [f"H{pod}_{e}_{j}" for e in (1, 2) for j in (0, 1)]
        start_flows(net, local, f"H{pod}_0_1", local_burst_size, usec(40),
                    port=port, rng=rng, jitter_ns=usec(5))
        port += len(local)

    truth = GroundTruth(
        anomaly=AnomalyType.MICRO_BURST_INCAST,
        culprit_flows=[f.key for f in culprits],
        initial_port=topo.attachment_of(target),
    )
    return _finish(
        net, f"fleet-incast-k{k}", seed, truth, victims, duration_ns,
        f"K={k} fat-tree with an incast in every pod; pod 0's incast "
        "back-pressures the diagnosed victim.",
    )


SCENARIO_BUILDERS = {
    "lordma-attack": lordma_attack_scenario,
    "incast-backpressure": incast_backpressure_scenario,
    "pfc-storm": pfc_storm_scenario,
    "contention-masked-storm": contention_masked_storm_scenario,
    "in-loop-deadlock": in_loop_deadlock_scenario,
    "out-of-loop-deadlock": out_of_loop_deadlock_scenario,
    "normal-contention": normal_contention_scenario,
    "fleet-incast-k8": lambda seed=1: fleet_incast_scenario(seed=seed, k=8),
    "fleet-incast-k16": lambda seed=1: fleet_incast_scenario(seed=seed, k=16),
}
