"""Deterministic fault injection and chaos testing for the collection
pipeline (polling packets, register DMA, report channel, agent, clocks)."""

from .. import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(globals(), {
    "chaos": (
        "CHAOS_SCENARIOS", "chaos_sweep", "run_chaos_cell", "summarize",
    ),
    "injector": (
        "DMA_FAIL", "DMA_OK", "DMA_STALE", "REPORT_DELAYED", "REPORT_LOST",
        "REPORT_OK", "REPORT_TRUNCATED", "FaultIncident", "FaultInjector",
        "make_injector",
    ),
    "plan": ("FaultPlan", "plan_or_none"),
})
