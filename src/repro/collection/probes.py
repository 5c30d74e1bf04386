"""Pingmesh-style periodic probing (§5, "Operating scenarios of Hawkeye").

Besides on-demand diagnosis triggered by application complaints, Hawkeye
can run periodic diagnosis when integrated with pingmesh-like probes: tiny
probe flows are launched between host pairs on a schedule, and since they
ride the same lossless class as data, any PFC anomaly inflates their RTT
(or stalls them) and triggers the normal detection → polling → diagnosis
pipeline through the standard :class:`~repro.collection.agent.DetectionAgent`.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from typing import List, Optional, Sequence

from ..sim.flow import Flow
from ..sim.network import Network
from ..units import KB, usec


PROBE_SIZE = 4 * KB
# Each probe takes the next source port from here, so probes never share
# a 5-tuple.
PROBE_SRC_PORT_BASE = 50000
# Probes per round; pairs are sampled round-robin over all host pairs.
PROBES_PER_ROUND = 4


@dataclass
class ProbeMeshConfig:
    interval_ns: int = usec(500)


class ProbeMesh:
    """Launches a rotating mesh of probe flows between host pairs."""

    def __init__(
        self,
        network: Network,
        config: Optional[ProbeMeshConfig] = None,
        hosts: Optional[Sequence[str]] = None,
        seed: int = 1,
    ) -> None:
        self.network = network
        self.config = config if config is not None else ProbeMeshConfig()
        names = list(hosts) if hosts is not None else sorted(network.hosts)
        if len(names) < 2:
            raise ValueError("a probe mesh needs at least two hosts")
        rng = random.Random(seed)
        pairs = [(a, b) for a in names for b in names if a != b]
        rng.shuffle(pairs)
        self._pairs = itertools.cycle(pairs)
        self._next_port = PROBE_SRC_PORT_BASE
        self.probes: List[Flow] = []
        self._running = False

    def start(self) -> None:
        """Begin probing (idempotent)."""
        if self._running:
            return
        self._running = True
        self.network.sim.schedule(0, self._round)

    def stop(self) -> None:
        self._running = False

    def _round(self) -> None:
        if not self._running:
            return
        now = self.network.sim.now
        for _ in range(PROBES_PER_ROUND):
            src, dst = next(self._pairs)
            probe = self.network.make_flow(
                src, dst, PROBE_SIZE, now, src_port=self._next_port
            )
            self._next_port += 1
            self.network.start_flow(probe)
            self.probes.append(probe)
        self.network.sim.schedule(self.config.interval_ns, self._round)

    def stalled_probes(self) -> List[Flow]:
        """Probes that never completed — blocked paths worth diagnosing."""
        return [p for p in self.probes if not p.completed]

    def coverage(self) -> float:
        """Fraction of launched probes that completed."""
        if not self.probes:
            return 1.0
        done = sum(1 for p in self.probes if p.completed)
        return done / len(self.probes)
