"""Workload model tests: size quantiles, Poisson arrivals."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.units import KB, MB, gbps, msec
from repro.workloads import FlowSizeDistribution, PoissonArrivals, SizeBand


class TestFlowSizeDistribution:
    def sample_many(self, dist, n=4000, seed=7):
        rng = random.Random(seed)
        return [dist.sample(rng) for _ in range(n)]

    def test_matches_paper_quantiles(self):
        """<80% of flows <= 10 MB, <90% <= 100 MB, rest 100-300 MB (§4.1)."""
        sizes = self.sample_many(FlowSizeDistribution())
        n = len(sizes)
        frac_10mb = sum(s <= 10 * MB for s in sizes) / n
        frac_100mb = sum(s <= 100 * MB for s in sizes) / n
        assert frac_10mb == pytest.approx(0.80, abs=0.03)
        assert frac_100mb == pytest.approx(0.90, abs=0.03)
        assert max(sizes) <= 300 * MB

    def test_scale_shrinks_sizes(self):
        scaled = FlowSizeDistribution(scale=1e-3)
        sizes = self.sample_many(scaled)
        assert max(sizes) <= 300 * KB
        frac = sum(s <= 10 * KB for s in sizes) / len(sizes)
        assert frac == pytest.approx(0.80, abs=0.05)

    def test_min_size_enforced(self):
        dist = FlowSizeDistribution(scale=1e-9, min_size=1 * KB)
        assert all(s == 1 * KB for s in self.sample_many(dist, 100))

    def test_mean_matches_empirical(self):
        dist = FlowSizeDistribution()
        sizes = self.sample_many(dist, 20000)
        empirical = sum(sizes) / len(sizes)
        assert empirical == pytest.approx(dist.mean(), rel=0.15)

    def test_bad_probabilities_rejected(self):
        with pytest.raises(ValueError):
            FlowSizeDistribution(bands=[SizeBand(1, 10, 0.5)])

    def test_deterministic_given_rng(self):
        dist = FlowSizeDistribution()
        a = self.sample_many(dist, 50, seed=3)
        b = self.sample_many(dist, 50, seed=3)
        assert a == b


class TestPoissonArrivals:
    def make(self, load=0.2, seed=1):
        return PoissonArrivals(
            FlowSizeDistribution(scale=1e-3),
            load=load,
            host_bandwidth=gbps(100),
            seed=seed,
        )

    def test_events_sorted_and_in_window(self):
        events = self.make().generate(["a", "b", "c"], duration_ns=msec(10))
        times = [t for t, *_ in events]
        assert times == sorted(times)
        assert all(0 <= t < msec(10) for t in times)

    def test_src_never_equals_dst(self):
        events = self.make().generate(["a", "b"], duration_ns=msec(10))
        assert all(src != dst for _, src, dst, _ in events)

    def test_denormal_load_generates_nothing(self):
        """A load so small the aggregate rate underflows to 0.0 is simply
        silent — it used to divide by zero inside ``expovariate``."""
        arrivals = self.make(load=5e-324)
        assert arrivals.rate_per_ns * 3 == 0.0
        assert arrivals.generate(["a", "b", "c"], duration_ns=msec(10)) == []

    def test_rate_scales_with_load(self):
        low = len(self.make(load=0.05).generate(["a", "b", "c", "d"], msec(20)))
        high = len(self.make(load=0.4).generate(["a", "b", "c", "d"], msec(20)))
        assert high > 3 * low

    def test_offered_load_near_target(self):
        arrivals = self.make(load=0.25)
        hosts = [f"h{i}" for i in range(8)]
        duration = msec(50)
        events = arrivals.generate(hosts, duration)
        offered = sum(size for *_, size in events) / (
            len(hosts) * gbps(100) * duration / 1e9
        )
        assert offered == pytest.approx(0.25, rel=0.35)

    def test_exclude_pairs(self):
        events = self.make().generate(
            ["a", "b", "c"], msec(20), exclude_pairs={("a", "b")}
        )
        assert ("a", "b") not in {(s, d) for _, s, d, _ in events}

    def test_validation(self):
        with pytest.raises(ValueError):
            self.make(load=0.0)
        with pytest.raises(ValueError):
            self.make().generate(["only"], msec(1))

    def test_start_offset(self):
        events = self.make().generate(["a", "b"], msec(5), start_ns=msec(100))
        assert all(msec(100) <= t < msec(105) for t, *_ in events)
