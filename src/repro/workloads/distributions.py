"""Empirical RoCEv2 workload models (§4.1).

The paper's workload comes from an industrial data center [54] with a
long-tailed flow size distribution: <80% of flows are smaller than 10 MB,
<90% smaller than 100 MB, and ~10% between 100 MB and 300 MB.  We sample a
piecewise log-uniform distribution matching exactly those quantiles.

A ``scale`` factor shrinks sizes for simulation speed (the default
experiments use 1/1000, i.e. KB instead of MB); the *relative* shape —
which is what queueing and PFC dynamics react to — is preserved.  Flow
arrivals follow a Poisson process whose rate is set from the target link
load, and endpoints are picked uniformly at random.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

from ..units import KB, MB


@dataclass(frozen=True)
class SizeBand:
    low: int
    high: int
    probability: float


DEFAULT_BANDS = (
    SizeBand(low=10 * KB, high=10 * MB, probability=0.80),
    SizeBand(low=10 * MB, high=100 * MB, probability=0.10),
    SizeBand(low=100 * MB, high=300 * MB, probability=0.10),
)


class FlowSizeDistribution:
    """Piecewise log-uniform sampler matching the paper's quantiles."""

    def __init__(
        self,
        bands: Sequence[SizeBand] = DEFAULT_BANDS,
        scale: float = 1.0,
        min_size: int = 1 * KB,
    ) -> None:
        total = sum(b.probability for b in bands)
        if not math.isclose(total, 1.0, rel_tol=1e-6):
            raise ValueError(f"band probabilities sum to {total}, expected 1.0")
        self.bands = tuple(bands)
        self.scale = scale
        self.min_size = min_size

    def sample(self, rng: random.Random) -> int:
        r = rng.random()
        cumulative = 0.0
        band = self.bands[-1]
        for candidate in self.bands:
            cumulative += candidate.probability
            if r <= cumulative:
                band = candidate
                break
        log_low, log_high = math.log(band.low), math.log(band.high)
        size = math.exp(rng.uniform(log_low, log_high)) * self.scale
        return max(self.min_size, int(size))

    def mean(self) -> float:
        """Analytic mean of the (scaled) distribution."""
        total = 0.0
        for band in self.bands:
            log_low, log_high = math.log(band.low), math.log(band.high)
            band_mean = (band.high - band.low) / (log_high - log_low)
            total += band.probability * band_mean
        return max(self.min_size, total * self.scale)


class PoissonArrivals:
    """Poisson flow arrival process scaled to a target link load.

    ``load`` is the average fraction of each host's line rate consumed by
    the generated traffic; the arrival rate per host is then
    ``load * bandwidth / mean_flow_size``.
    """

    def __init__(
        self,
        sizes: FlowSizeDistribution,
        load: float,
        host_bandwidth: float,
        seed: int = 1,
    ) -> None:
        if not 0 < load < 1:
            raise ValueError("load must be in (0, 1)")
        self.sizes = sizes
        self.load = load
        self.host_bandwidth = host_bandwidth
        self.rng = random.Random(seed)
        self.rate_per_ns = load * host_bandwidth / sizes.mean() / 1e9

    def generate(
        self,
        hosts: Sequence[str],
        duration_ns: int,
        start_ns: int = 0,
        exclude_pairs: Optional[set] = None,
    ) -> List[Tuple[int, str, str, int]]:
        """Yield ``(start_time, src, dst, size)`` tuples, time-sorted.

        The per-fabric rate is ``rate_per_ns * len(hosts)``; sources and
        destinations are picked uniformly (never equal), skipping pairs in
        ``exclude_pairs``.
        """
        if len(hosts) < 2:
            raise ValueError("need at least two hosts")
        events: List[Tuple[int, str, str, int]] = []
        aggregate_rate = self.rate_per_ns * len(hosts)
        if not aggregate_rate > 0:  # a denormal load underflows to 0.0
            return events
        t = float(start_ns)
        end = start_ns + duration_ns
        while True:
            t += self.rng.expovariate(aggregate_rate)
            if t >= end:
                break
            src = self.rng.choice(hosts)
            dst = self.rng.choice(hosts)
            while dst == src:
                dst = self.rng.choice(hosts)
            if exclude_pairs and (src, dst) in exclude_pairs:
                continue
            events.append((int(t), src, dst, self.sizes.sample(self.rng)))
        return events
