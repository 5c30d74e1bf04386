"""repro.obs — zero-dependency observability for the Hawkeye pipeline.

Three planes, one package:

- **tracing** (:mod:`.trace`, :mod:`.pipeline`, :mod:`.simtrace`): typed
  span/event records with sim-time timestamps and parent links, kept in
  memory and optionally streamed to a JSONL sink; off by default (no
  tracer is built).  A traced run is one process, so its records
  compare raw across runs.  :class:`SimTraceObserver` is also the
  fabric's ground-truth recorder (PFC pause episodes per port);
- **metrics** (:mod:`.metrics`): counters/gauges/histograms absorbing the
  legacy per-component counter dicts, exported via ``--metrics-json``;
- **profiling** (:mod:`.profile`): per-stage wall-clock accounting folded
  into ``PerfStats.stages``, exported via ``--perf-json``.

:mod:`.tree` turns retained records back into the causal span tree the
``repro trace`` CLI renders and the invariant tests validate.
"""

from .. import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(globals(), {
    "metrics": ("Counter", "Gauge", "Histogram", "MetricsRegistry"),
    "pipeline": ("ObsConfig", "PipelineObs"),
    "profile": ("StageProfile", "merge_stage_dicts"),
    "simtrace": ("SimTraceObserver",),
    "trace": (
        "Event", "JsonlSink", "ListSink", "NullSink", "Sink", "Span",
        "Tracer",
    ),
    "tree": (
        "SpanNode", "build_tree", "check_causal_chains", "load_jsonl",
        "render_tree", "validate_records",
    ),
})
