"""Inputs are a pure function of --seed."""

import pytest

from workloads import WORKLOADS
from workloads import paper_mix


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_same_seed_same_inputs(name):
    plan = WORKLOADS[name].plan
    assert plan(7, 3) == plan(7, 3)


@pytest.mark.parametrize(
    "name", ["paper_mix", "fleet_sharded", "poll_heavy", "fuzz_campaign"]
)
def test_another_seed_other_inputs(name):
    plan = WORKLOADS[name].plan
    assert plan(7, 3) != plan(8, 3)


def test_serve_schedule_is_twenty_per_second():
    offsets = WORKLOADS["serve_queries"].plan(1, 12)
    assert len(offsets) == 240
    assert offsets[:3] == [0.0, 0.05, 0.1]


def test_paper_mix_round_covers_all_builders_and_one_cli_run():
    (round_ops,) = paper_mix.plan(5, 1)
    assert [name for kind, name, _ in round_ops if kind == "verdict"] == list(
        paper_mix.BUILDERS
    )
    assert [kind for kind, _, _ in round_ops].count("cli") == 1


def test_lordma_seed_stays_among_the_complaining_ones():
    for seed in (0, 9, 10, 11, 100, 2**31 - 1):
        assert 1 <= paper_mix.builder_seed("lordma-attack", seed) <= 10
        assert paper_mix.builder_seed("pfc-storm", seed) == seed
