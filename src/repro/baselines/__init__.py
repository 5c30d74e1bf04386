"""Baseline diagnosis systems: SpiderMon, NetSight, polling and telemetry ablations."""

from .. import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(globals(), {
    "systems": (
        "NETSIGHT_POSTCARD_BYTES", "SPIDERMON_FLOW_RECORD_BYTES",
        "SPIDERMON_HEADER_BYTES", "SystemKind", "apply_visibility",
        "bandwidth_overhead_bytes", "processing_overhead_bytes",
    ),
    "transforms": (
        "strip_flow_telemetry", "strip_pfc_visibility", "strip_port_causality",
    ),
    "watchdog": ("PfcWatchdog", "WatchdogConfig", "WatchdogObservation"),
})
