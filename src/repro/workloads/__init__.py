"""Workload generation: empirical traffic model, anomaly builders and the
traffic kit they share (``start_flows``, ``inject_pfc``, ...)."""

from .. import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(globals(), {
    "anomalies": (
        "BACKGROUND_SCALE", "SCENARIO_BUILDERS", "add_background_traffic",
        "cbd_ring_routing", "circulation_flows",
        "contention_masked_storm_scenario", "fleet_incast_scenario",
        "in_loop_deadlock_scenario", "incast_backpressure_scenario",
        "inject_pfc", "lordma_attack_scenario", "normal_contention_scenario",
        "out_of_loop_deadlock_scenario", "pfc_storm_scenario", "start_flows",
    ),
    "distributions": (
        "DEFAULT_BANDS", "FlowSizeDistribution", "PoissonArrivals", "SizeBand",
    ),
    "scenario": ("GroundTruth", "Scenario"),
})
