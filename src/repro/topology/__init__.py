"""Topology substrate: graph model, standard builders and ECMP routing."""

from .. import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(globals(), {
    "graph": ("Link", "Node", "NodeKind", "PortRef", "Topology", "TopologyError"),
    "builders": (
        "build_dumbbell", "build_fat_tree", "build_leaf_spine", "build_line",
        "build_ring",
    ),
    "partition": ("ShardPlan", "partition_topology"),
    "routing": ("RoutingError", "RoutingTable", "make_ring_cbd_routes"),
    "cbd": (
        "buffer_dependency_graph", "check_deadlock_free", "find_cbd_cycles",
        "has_cbd",
    ),
})
