"""Workload generation: empirical traffic model and anomaly injectors."""

from .. import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(globals(), {
    "anomalies": (
        "BACKGROUND_SCALE", "SCENARIO_BUILDERS", "add_background_traffic",
        "contention_masked_storm_scenario", "fleet_incast_scenario",
        "in_loop_deadlock_scenario", "incast_backpressure_scenario",
        "lordma_attack_scenario", "normal_contention_scenario",
        "out_of_loop_deadlock_scenario", "pfc_storm_scenario",
    ),
    "distributions": (
        "DEFAULT_BANDS", "FlowSizeDistribution", "PoissonArrivals", "SizeBand",
    ),
    "scenario": ("GroundTruth", "Scenario"),
})
