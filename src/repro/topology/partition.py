"""Deterministic topology partitioning for the sharded simulator.

The sharded runner (``repro.sim.shard`` / ``repro.experiments.shardrun``)
splits one fabric across worker processes.  The partitioner assigns every
node to exactly one shard, keeping *atomic groups* together:

- On a fat-tree, removing the core layer leaves one connected component per
  pod, so pods are the atomic groups and only agg<->core links are cut.
- On fabrics with no host-free core layer (ring, line, dumbbell,
  leaf-spine), each host-bearing switch plus its hosts forms a group, and
  inter-switch links are the cut set.

Hosts always land in the same shard as their ToR, so host<->switch links
are never cut — only switch<->switch links carry inter-shard traffic.  The
conservative-lookahead barrier uses the minimum propagation delay over the
cut links: a frame sent at time ``t`` across a cut link cannot arrive
before ``t + lookahead_ns``, so every shard may safely simulate
``lookahead_ns - 1`` beyond the earliest pending event fabric-wide.

Everything here is name-ordered and seed-free, so all workers (and the
parent) derive the identical plan from the shared topology.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Dict, List, Set, Tuple

from .graph import Link, Topology


@dataclass(frozen=True)
class ShardPlan:
    """A deterministic assignment of topology nodes to shards."""

    shards: int  # effective shard count (may be clamped below the request)
    requested_shards: int
    assignment: Dict[str, int] = field(compare=False)
    groups: Tuple[Tuple[str, ...], ...] = field(compare=False)
    cut_links: Tuple[Link, ...] = field(compare=False)
    lookahead_ns: int = 0

    def shard_sizes(self) -> List[int]:
        sizes = [0] * self.shards
        for sid in self.assignment.values():
            sizes[sid] += 1
        return sizes


def _atomic_groups(topo: Topology) -> Tuple[List[Tuple[str, ...]], List[str]]:
    """Atomic node groups plus the leftover (freely placeable) switches.

    Core-like switches — no attached hosts and no neighbor with attached
    hosts — are lifted out first; the connected components of what remains
    are the groups (fat-tree pods).  If that still leaves one component,
    fall back to ToR-level groups (each host-bearing switch + its hosts)
    and treat every other switch as freely placeable.
    """
    hosts_of: Dict[str, List[str]] = {}
    for host in topo.hosts:
        tor = topo.attachment_of(host.name).node
        hosts_of.setdefault(tor, []).append(host.name)

    adjacency: Dict[str, Set[str]] = {n.name: set() for n in topo.nodes}
    for link in topo.links:
        adjacency[link.a.node].add(link.b.node)
        adjacency[link.b.node].add(link.a.node)

    core_like = {
        sw.name
        for sw in topo.switches
        if sw.name not in hosts_of
        and not any(nb in hosts_of for nb in adjacency[sw.name])
    }

    kept = sorted(n.name for n in topo.nodes if n.name not in core_like)
    kept_set = set(kept)
    seen: Set[str] = set()
    components: List[Tuple[str, ...]] = []
    for start in kept:
        if start in seen:
            continue
        comp = []
        queue = deque([start])
        seen.add(start)
        while queue:
            node = queue.popleft()
            comp.append(node)
            for nb in sorted(adjacency[node]):
                if nb in kept_set and nb not in seen:
                    seen.add(nb)
                    queue.append(nb)
        components.append(tuple(sorted(comp)))

    if len(components) > 1:
        return components, sorted(core_like)

    # Single component: group each ToR with its hosts; everything else
    # (core-like or hostless transit switches) is freely placeable.
    groups = [
        tuple(sorted([tor, *hosts_of[tor]])) for tor in sorted(hosts_of)
    ]
    grouped = {n for g in groups for n in g}
    loose = sorted(
        sw.name for sw in topo.switches if sw.name not in grouped
    )
    return groups, loose


def partition_topology(topo: Topology, shards: int) -> ShardPlan:
    """Partition ``topo`` into at most ``shards`` balanced shards.

    The effective shard count is clamped to the number of atomic groups
    (a pod cannot be split), so the plan's ``shards`` may be lower than
    requested.  Groups are packed largest-first onto the least-loaded
    shard; freely placeable switches are then dealt round-robin in name
    order.  The whole procedure is deterministic given the topology.
    """
    if shards < 1:
        raise ValueError(f"shard count must be positive, got {shards}")

    groups, loose = _atomic_groups(topo)
    effective = max(1, min(shards, len(groups)))

    assignment: Dict[str, int] = {}
    loads = [0] * effective
    for group in sorted(groups, key=lambda g: (-len(g), g)):
        sid = min(range(effective), key=lambda s: (loads[s], s))
        for node in group:
            assignment[node] = sid
        loads[sid] += len(group)
    for idx, node in enumerate(loose):
        assignment[node] = idx % effective

    for node in topo.nodes:
        assignment.setdefault(node.name, 0)

    cut_links = tuple(
        link
        for link in topo.links
        if assignment[link.a.node] != assignment[link.b.node]
    )
    for link in cut_links:
        if not (
            topo.node(link.a.node).is_switch
            and topo.node(link.b.node).is_switch
        ):
            raise ValueError(f"partition cut a host link: {link}")

    lookahead_ns = min((link.delay_ns for link in cut_links), default=0)
    if cut_links and lookahead_ns < 1:
        raise ValueError(
            "cannot shard: a cut link has zero propagation delay, "
            "so no conservative lookahead window exists"
        )

    return ShardPlan(
        shards=effective,
        requested_shards=shards,
        assignment=assignment,
        groups=tuple(sorted(groups)),
        cut_links=cut_links,
        lookahead_ns=lookahead_ns,
    )
