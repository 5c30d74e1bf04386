"""Continuous fabric-health monitoring for the simulated RDMA network.

The pipeline plane (``repro.obs``) traces what the *diagnoser* does; this
package watches what the *fabric* does, continuously: fixed-step ring
series per port/switch/host, count-min-sketched per-flow byte counts,
sliding-window alert rules, and an incident timeline that correlates
fabric alerts with the Hawkeye diagnosis that follows.
"""

from .. import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(globals(), {
    "monitor": ("FabricMonitor", "MonitorConfig", "default_rules"),
    "rules": (
        "Alert", "AlertRule", "SustainedRule", "CollapseRule", "RuleEngine",
        "PFC_STORM", "PAUSE_BACKPRESSURE", "BUFFER_SATURATION",
        "THROUGHPUT_COLLAPSE", "RTT_INFLATION",
    ),
    "series": ("RingSeries",),
    "sketch": ("CountMinSketch", "HeavyHitters"),
    "timeline": (
        "ANOMALY_ALERT_CATEGORIES", "IncidentTimeline", "MonitorIncident",
    ),
    "export": (
        "prometheus_text", "registry_prometheus_text", "jsonl_snapshot",
        "render_dashboard", "render_html", "sparkline",
    ),
})
