"""Shared fixtures: small fabrics and ready-made flows."""

import pytest

from repro.sim import Network, SimConfig
from repro.topology import (
    RoutingTable,
    Topology,
    build_dumbbell,
    build_fat_tree,
    build_line,
    build_ring,
)
from repro.units import gbps, usec


@pytest.fixture
def dumbbell():
    return build_dumbbell(hosts_per_side=2)


@pytest.fixture
def dumbbell_net(dumbbell):
    return Network(dumbbell)


@pytest.fixture
def line3():
    return build_line(num_switches=3, hosts_per_switch=2)


@pytest.fixture
def line3_net(line3):
    return Network(line3)


@pytest.fixture
def fat_tree():
    return build_fat_tree(k=4)


@pytest.fixture
def ring4():
    return build_ring(num_switches=4, hosts_per_switch=2)


def build_tiny(bandwidth: float = gbps(100)) -> Topology:
    """Two hosts, one switch: the smallest routable fabric."""
    topo = Topology("tiny")
    topo.add_switch("SW")
    topo.add_host("A", ip="10.0.0.1")
    topo.add_host("B", ip="10.0.0.2")
    topo.add_link("A", "SW", bandwidth, usec(1))
    topo.add_link("B", "SW", bandwidth, usec(1))
    return topo


@pytest.fixture
def tiny_topo():
    return build_tiny()


@pytest.fixture
def tiny_net(tiny_topo):
    return Network(tiny_topo)
