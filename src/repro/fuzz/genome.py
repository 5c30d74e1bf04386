"""Scenario genomes: the typed search space of the coverage-guided fuzzer.

A :class:`ScenarioGenome` is a flat, picklable bundle of the knobs that
define one runnable scenario: topology family and size, oversubscription,
CBD-creating route rewires, incast shape (degree, burst size, tail,
pulsing, jitter), host PFC injection timing, PFC/ECN thresholds, and the
victim flow.  Unlike the hand-crafted builders in
:mod:`repro.workloads.anomalies`, a genome carries no intent — the fuzzer
mutates it blindly and lets the diagnosis pipeline say what the resulting
fabric did.

Two invariants make the search sound:

- ``normalized()`` maps *any* field assignment into the valid region
  (ranges clamped, Xon < Xoff, Kmin < Kmax, fat-tree K even, incast
  degree bounded by the host pool), so every mutation/crossover product
  builds a runnable scenario;
- ``build()`` is a pure function of the (normalized) genome: the same
  genome always yields the same fabric and flow schedule, which is what
  lets corpus entries replay byte-identically across processes and shards.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import asdict, dataclass, fields, replace
from typing import Dict, List, Tuple

from ..core.report import AnomalyType
from ..sim.config import EcnConfig, PfcConfig, SimConfig
from ..sim.network import Network
from ..topology.builders import (
    build_dumbbell,
    build_fat_tree,
    build_leaf_spine,
    build_line,
    build_ring,
)
from ..units import KB, gbps, usec
from ..workloads.anomalies import (
    add_background_traffic,
    cbd_ring_routing,
    circulation_flows,
    inject_pfc,
    start_flows,
)
from ..workloads.scenario import GroundTruth, Scenario

GENOME_FORMAT = 1

TOPOLOGY_KINDS: Tuple[str, ...] = (
    "fattree", "leafspine", "ring", "line", "dumbbell",
)

# Valid inclusive ranges for every numeric gene.  ``normalized`` clamps
# into these; the mutators draw from them.
INT_RANGES: Dict[str, Tuple[int, int]] = {
    "seed": (0, 2**32 - 1),
    "k": (4, 8),
    "switches": (3, 6),
    "hosts_per_switch": (1, 4),
    "incast_degree": (0, 8),
    "burst_kb": (50, 1000),
    "pulses": (1, 6),
    "pulse_gap_us": (20, 500),
    "jitter_us": (0, 10),
    "victim_kb": (100, 3000),
    "storm_us": (0, 3000),
    "storm_start_us": (10, 500),
    "duration_us": (1000, 5000),
    "xoff_kb": (20, 200),
    "xon_kb": (5, 195),
    "kmin_kb": (20, 400),
    "kmax_kb": (30, 1200),
}
FLOAT_RANGES: Dict[str, Tuple[float, float]] = {
    "link_gbps": (10.0, 100.0),
    "oversub": (0.25, 1.0),
    "flow_tail": (1.0, 8.0),
    "victim_rate": (0.05, 1.0),
    "background_load": (0.0, 0.15),
}


def _clamp(value, lo, hi):
    return lo if value < lo else hi if value > hi else value


@dataclass(frozen=True)
class ScenarioGenome:
    """One point in scenario space (all sizes in the unit of the suffix)."""

    seed: int = 1
    # Topology genes.
    topology: str = "fattree"
    k: int = 4                     # fat-tree arity
    switches: int = 4              # ring/line/leaf-spine width
    hosts_per_switch: int = 2
    link_gbps: float = 100.0
    oversub: float = 1.0           # core/spine bandwidth as a fraction of edge
    cbd_rewire: bool = False       # ring only: clockwise CBD route overrides
    # Workload genes.
    incast_degree: int = 5
    burst_kb: int = 500
    flow_tail: float = 1.0         # size multiplier on every third burst flow
    pulses: int = 1
    pulse_gap_us: int = 100
    jitter_us: int = 5
    victim_kb: int = 2000
    victim_rate: float = 1.0       # fraction of line rate (1.0 = unlimited)
    storm_us: int = 0              # PFC injection duration (0 = no injection)
    storm_start_us: int = 30
    circulate: bool = False        # ring CBD: add the circulation flows
    background_load: float = 0.0
    duration_us: int = 4000
    # PFC / ECN threshold genes.
    xoff_kb: int = 80
    xon_kb: int = 40
    kmin_kb: int = 40
    kmax_kb: int = 160

    # -- serialization -----------------------------------------------------

    def to_json(self) -> str:
        payload = {"format": GENOME_FORMAT}
        payload.update(asdict(self))
        return json.dumps(payload, sort_keys=True, separators=(",", ":"))

    @classmethod
    def from_json(cls, text: str) -> "ScenarioGenome":
        payload = json.loads(text)
        payload.pop("format", None)
        names = {f.name for f in fields(cls)}
        unknown = set(payload) - names
        if unknown:
            raise ValueError(f"unknown genome fields: {sorted(unknown)}")
        return cls(**payload)

    def short_id(self) -> str:
        return hashlib.sha256(self.to_json().encode()).hexdigest()[:10]

    # -- validity ----------------------------------------------------------

    def host_pool(self) -> int:
        """How many hosts the (normalized) topology genes produce."""
        if self.topology == "fattree":
            return self.k * (self.k // 2) * self.hosts_per_switch
        if self.topology == "dumbbell":
            return 2 * self.hosts_per_switch
        return self.switches * self.hosts_per_switch

    def normalized(self) -> "ScenarioGenome":
        """Project the genome into the valid region (idempotent)."""
        changes: Dict[str, object] = {}
        for name, (lo, hi) in INT_RANGES.items():
            value = _clamp(int(getattr(self, name)), lo, hi)
            if value != getattr(self, name):
                changes[name] = value
        for name, (lo, hi) in FLOAT_RANGES.items():
            value = _clamp(float(getattr(self, name)), lo, hi)
            if value != getattr(self, name):
                changes[name] = value
        genome = replace(self, **changes) if changes else self

        changes = {}
        if genome.topology not in TOPOLOGY_KINDS:
            changes["topology"] = "fattree"
        topology = changes.get("topology", genome.topology)
        if genome.k % 2:
            changes["k"] = genome.k - 1
        if topology != "ring":
            if genome.cbd_rewire:
                changes["cbd_rewire"] = False
            if genome.circulate:
                changes["circulate"] = False
        elif genome.circulate and not genome.cbd_rewire:
            # Circulation flows realize a buffer dependency only when the
            # CBD routing misconfiguration is present.
            changes["circulate"] = False
        if genome.xon_kb >= genome.xoff_kb:
            changes["xon_kb"] = max(
                INT_RANGES["xon_kb"][0], genome.xoff_kb - 5
            )
        if genome.kmax_kb <= genome.kmin_kb:
            changes["kmax_kb"] = genome.kmin_kb + 10
        genome = replace(genome, **changes) if changes else genome

        # The incast pool excludes the target, the victim's endpoints.
        limit = max(0, genome.host_pool() - 3)
        if genome.incast_degree > limit:
            genome = replace(genome, incast_degree=limit)
        return genome

    # -- construction ------------------------------------------------------

    def _build_topology(self):
        bandwidth = gbps(self.link_gbps)
        uplink = gbps(self.link_gbps * self.oversub)
        if self.topology == "fattree":
            return build_fat_tree(
                k=self.k,
                bandwidth=bandwidth,
                hosts_per_edge=self.hosts_per_switch,
                core_bandwidth=uplink,
            )
        if self.topology == "leafspine":
            return build_leaf_spine(
                leaves=self.switches,
                spines=max(1, self.switches // 2),
                hosts_per_leaf=self.hosts_per_switch,
                bandwidth=bandwidth,
                spine_bandwidth=uplink,
            )
        if self.topology == "ring":
            return build_ring(
                num_switches=self.switches,
                hosts_per_switch=self.hosts_per_switch,
                bandwidth=bandwidth,
            )
        if self.topology == "line":
            return build_line(
                num_switches=self.switches,
                hosts_per_switch=self.hosts_per_switch,
                bandwidth=bandwidth,
            )
        return build_dumbbell(
            hosts_per_side=self.hosts_per_switch, bandwidth=bandwidth
        )

    def build(self) -> Scenario:
        """Materialize the genome as a runnable scenario.

        Ground truth is :data:`AnomalyType.UNKNOWN`: fuzzed scenarios have
        no oracle — the coverage map judges their outcome, not a truth
        match.
        """
        g = self.normalized()
        topo = g._build_topology()

        cfg = SimConfig()
        cfg.seed = g.seed
        cfg.pfc = PfcConfig(
            xoff_bytes=g.xoff_kb * KB, xon_bytes=g.xon_kb * KB
        )
        cfg.ecn = EcnConfig(
            kmin_bytes=g.kmin_kb * KB, kmax_bytes=g.kmax_kb * KB
        )

        routing = (
            cbd_ring_routing(topo, g.switches, g.hosts_per_switch)
            if g.cbd_rewire else None
        )
        net = Network(topo, routing=routing, config=cfg)
        rng = random.Random(g.seed)

        hosts = [h.name for h in topo.hosts]
        target = hosts[0]
        target_switch = topo.attachment_of(target).node
        sibling = next(
            (
                h for h in hosts
                if h != target and topo.attachment_of(h).node == target_switch
            ),
            None,
        )
        victim_dst = sibling if sibling is not None else target
        victim_src = next(
            h for h in reversed(hosts) if h not in (target, victim_dst)
        )

        # Incast sources, remote-first (the tail of the host list lives in
        # the farthest pod / switch), one pulse train per source; every
        # third flow of a pulse is ``flow_tail`` times longer.
        pool = [
            h for h in reversed(hosts)
            if h not in (target, victim_dst, victim_src)
        ]
        sources = pool[: g.incast_degree]
        burst = g.burst_kb * KB
        burst_flows = []
        for pulse in range(g.pulses):
            sizes = [
                int(burst * g.flow_tail) if (i + pulse) % 3 == 0 else burst
                for i in range(len(sources))
            ]
            burst_flows += start_flows(
                net, sources, target, sizes,
                usec(40) + pulse * usec(g.pulse_gap_us),
                port=11000 + pulse * len(sources),
                rng=rng, jitter_ns=usec(g.jitter_us) + 1,
            )

        if g.circulate:
            circulation_flows(net, g.switches)
        if g.storm_us > 0:
            inject_pfc(net, target, usec(g.storm_start_us), usec(g.storm_us))
        victims = start_flows(
            net, [victim_src], victim_dst, g.victim_kb * KB, usec(10),
            port=12000, rate=g.victim_rate if g.victim_rate < 1.0 else None,
        )

        exclude = {target, victim_src, victim_dst, *sources}
        if len(hosts) - len(exclude) >= 2:
            # The Poisson generator needs two free hosts; tiny fabrics
            # simply run without background.
            add_background_traffic(
                net, g.seed + 1000, g.background_load, usec(g.duration_us),
                exclude_hosts=exclude,
            )

        truth = GroundTruth(
            anomaly=AnomalyType.UNKNOWN,
            culprit_flows=[f.key for f in burst_flows],
            injecting_host=target if g.storm_us > 0 else None,
            initial_port=topo.attachment_of(target),
        )
        return Scenario(
            name=f"fuzz-{g.short_id()}",
            network=net,
            truth=truth,
            victims=victims,
            duration_ns=usec(g.duration_us),
            description=(
                f"fuzzed {g.topology} fabric: incast degree "
                f"{len(sources)} x {g.pulses} pulse(s)"
                + (f", PFC injection {g.storm_us}us" if g.storm_us else "")
                + (", CBD rewire" if g.cbd_rewire else "")
            ),
        )


def genome_fields() -> List[str]:
    """The gene names in declaration order (mutation axis order)."""
    return [f.name for f in fields(ScenarioGenome)]
