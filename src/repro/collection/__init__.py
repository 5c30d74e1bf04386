"""Anomaly detection, polling-based causality tracing and collection (§3.4)."""

from .. import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(globals(), {
    "agent": ("DetectionAgent", "TriggerEvent"),
    "collector": (
        "MTU_BYTES", "PHV_REPORT_BYTES", "CollectionStats", "TelemetryCollector",
    ),
    "polling": ("PollingConfig", "PollingEngine"),
    "probes": ("ProbeMesh", "ProbeMeshConfig"),
})


def deploy_hawkeye(network):
    """Wire the full Hawkeye stack onto a network in one call.

    Returns ``(deployment, agent, engine, collector)`` — the telemetry
    deployment, the host detection agent, the polling engine, and the
    telemetry collector, already connected to each other.
    """
    from ..telemetry.hawkeye import HawkeyeDeployment
    from .agent import DetectionAgent
    from .collector import TelemetryCollector
    from .polling import PollingEngine

    deployment = HawkeyeDeployment(network)
    collector = TelemetryCollector(deployment)
    engine = PollingEngine(network, deployment)
    engine.add_mirror_listener(collector.on_polling_mirror)
    agent = DetectionAgent(network)
    return deployment, agent, engine, collector
