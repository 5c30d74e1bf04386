"""Hawkeye's PFC-aware, epoch-based switch telemetry (§3.3)."""

from .epoch import EpochScheme, nearest_power_of_two_shift
from .hawkeye import HawkeyeDeployment, HawkeyeSwitchTelemetry, TelemetryConfig
from .records import (
    FLOW_ENTRY_BYTES,
    METER_ENTRY_BYTES,
    PORT_ENTRY_BYTES,
    PORT_STATUS_BYTES,
    EpochData,
    FlowEntry,
    PortEntry,
)
from .snapshot import SwitchReport, merge_reports

__all__ = [
    "EpochScheme",
    "nearest_power_of_two_shift",
    "HawkeyeDeployment",
    "HawkeyeSwitchTelemetry",
    "TelemetryConfig",
    "FLOW_ENTRY_BYTES",
    "METER_ENTRY_BYTES",
    "PORT_ENTRY_BYTES",
    "PORT_STATUS_BYTES",
    "EpochData",
    "FlowEntry",
    "PortEntry",
    "SwitchReport",
    "merge_reports",
]
