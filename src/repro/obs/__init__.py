"""repro.obs — zero-dependency observability for the Hawkeye pipeline.

Two planes, one package:

- **tracing** (:mod:`.trace`, :mod:`.pipeline`, :mod:`.simtrace`): typed
  span/event records with sim-time timestamps and parent links, kept in
  memory and written to a JSONL file when one is given; off by default
  (no tracer is built).  A traced run is one process, so its records
  compare raw across runs.  :class:`SimTraceObserver` is also the
  fabric's ground-truth recorder (PFC pause episodes per port);
- **metrics** (:mod:`.metrics`): counters/gauges/histograms holding every
  run number, exported via ``--metrics-json``.  ``MetricsRegistry.stage``
  times a pipeline stage into its ``stage.<name>_s`` histogram.

:mod:`.tree` turns retained records back into the causal span tree the
``repro trace`` CLI renders and the invariant tests validate.
"""

from .. import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(globals(), {
    "metrics": ("Counter", "Gauge", "Histogram", "MetricsRegistry"),
    "pipeline": ("ObsConfig", "PipelineObs"),
    "simtrace": ("SimTraceObserver",),
    "trace": ("Event", "JsonlSink", "Span", "Tracer"),
    "tree": (
        "SpanNode", "build_tree", "check_causal_chains", "render_tree",
        "validate_records",
    ),
})
