"""Genome property suite: serialization identity and mutation validity.

Hypothesis drives genomes *outside* the valid region on purpose — the
fuzzer's soundness rests on ``normalized()`` projecting any field
assignment into a buildable scenario, and on the JSON codec being an
exact inverse of itself.
"""

import random
from dataclasses import replace

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.fuzz import (
    FLOAT_RANGES,
    INT_RANGES,
    TOPOLOGY_KINDS,
    ScenarioGenome,
    crossover,
    mutate,
    random_genome,
)


def genomes():
    """Arbitrary genomes, deliberately overshooting every valid range."""
    kwargs = {}
    for name, (lo, hi) in INT_RANGES.items():
        span = max(1, hi - lo)
        kwargs[name] = st.integers(lo - span, hi + span)
    for name, (lo, hi) in FLOAT_RANGES.items():
        span = hi - lo
        kwargs[name] = st.floats(
            lo - span, hi + span, allow_nan=False, allow_infinity=False
        )
    kwargs["topology"] = st.sampled_from(TOPOLOGY_KINDS + ("bogus",))
    kwargs["cbd_rewire"] = st.booleans()
    kwargs["circulate"] = st.booleans()
    return st.builds(ScenarioGenome, **kwargs)


class TestRoundTrip:
    @given(genomes())
    @settings(max_examples=100, deadline=None)
    def test_encode_decode_identity(self, genome):
        assert ScenarioGenome.from_json(genome.to_json()) == genome

    @given(genomes())
    @settings(max_examples=100, deadline=None)
    def test_short_id_stable(self, genome):
        assert genome.short_id() == genome.short_id()
        clone = ScenarioGenome.from_json(genome.to_json())
        assert clone.short_id() == genome.short_id()

    def test_unknown_field_rejected(self):
        import pytest

        with pytest.raises(ValueError, match="unknown genome fields"):
            ScenarioGenome.from_json('{"nope": 1}')


class TestNormalization:
    @given(genomes())
    @settings(max_examples=100, deadline=None)
    def test_normalized_is_valid_and_idempotent(self, genome):
        g = genome.normalized()
        assert g.normalized() == g
        for name, (lo, hi) in INT_RANGES.items():
            assert lo <= getattr(g, name) <= hi
        for name, (lo, hi) in FLOAT_RANGES.items():
            assert lo <= getattr(g, name) <= hi
        assert g.topology in TOPOLOGY_KINDS
        assert g.k % 2 == 0
        assert g.xon_kb < g.xoff_kb
        assert g.kmin_kb < g.kmax_kb
        assert g.incast_degree <= max(0, g.host_pool() - 3)
        if g.topology != "ring":
            assert not g.cbd_rewire and not g.circulate
        if g.circulate:
            assert g.cbd_rewire


class TestMutantsBuildRunnableScenarios:
    """Every mutation/crossover product must yield a live scenario: a
    connected fabric (Network construction BFS-routes every host) with at
    least the victim flow scheduled."""

    @given(genomes(), st.integers(0, 2**31))
    # A denormal background load survives normalization (it is > 0) and
    # used to underflow the Poisson rate to 0.0 -> ZeroDivisionError.
    @example(replace(ScenarioGenome(), background_load=5e-324), 0)
    @settings(max_examples=25, deadline=None)
    def test_mutant_builds(self, genome, rng_seed):
        rng = random.Random(rng_seed)
        mutant = mutate(genome.normalized(), rng)
        scenario = mutant.build()
        assert scenario.victims
        assert scenario.network.flows
        assert scenario.duration_ns > 0

    @given(genomes(), genomes(), st.integers(0, 2**31))
    @settings(max_examples=15, deadline=None)
    def test_crossover_builds(self, a, b, rng_seed):
        rng = random.Random(rng_seed)
        child = crossover(a.normalized(), b.normalized(), rng)
        scenario = child.build()
        assert scenario.victims
        assert scenario.network.flows

    @given(st.integers(0, 2**31))
    @settings(max_examples=15, deadline=None)
    def test_random_genome_builds(self, rng_seed):
        genome = random_genome(random.Random(rng_seed))
        assert genome.normalized() == genome
        scenario = genome.build()
        assert scenario.victims

    def test_build_is_deterministic(self):
        genome = random_genome(random.Random(11))
        a, b = genome.build(), genome.build()
        assert a.name == b.name
        assert len(a.network.flows) == len(b.network.flows)
        assert [f.key for f in a.network.flows] == [f.key for f in b.network.flows]
        assert [f.start_time for f in a.network.flows] == [
            f.start_time for f in b.network.flows
        ]
