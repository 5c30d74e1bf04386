"""Hawkeye's PFC-aware, epoch-based switch telemetry (§3.3)."""

from .. import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(globals(), {
    "epoch": ("EpochScheme", "nearest_power_of_two_shift"),
    "hawkeye": ("HawkeyeDeployment", "HawkeyeSwitchTelemetry", "TelemetryConfig"),
    "records": (
        "FLOW_ENTRY_BYTES", "METER_ENTRY_BYTES", "PORT_ENTRY_BYTES",
        "PORT_STATUS_BYTES", "EpochData", "FlowEntry", "PortEntry",
    ),
    "snapshot": ("SwitchReport",),
})
