"""repro.obs — zero-dependency observability for the Hawkeye pipeline.

Three planes, one package:

- **tracing** (:mod:`.trace`, :mod:`.pipeline`, :mod:`.simtrace`): typed
  span/event records with sim-time timestamps and parent links, over
  swappable sinks; off by default via :data:`NULL_TRACER`;
- **metrics** (:mod:`.metrics`): counters/gauges/histograms absorbing the
  legacy per-component counter dicts, exported via ``--metrics-json``;
- **profiling** (:mod:`.profile`): per-stage wall-clock accounting folded
  into ``PerfStats.stages`` and ``BENCH_perf.json``.

:mod:`.tree` turns retained records back into the causal span tree the
``repro trace`` CLI renders and the invariant tests validate.
"""

from .canon import canonical_jsonl, canonicalize
from .metrics import Counter, Gauge, Histogram, MetricsRegistry
from .pipeline import ObsConfig, PipelineObs
from .profile import StageProfile, merge_stage_dicts
from .simtrace import SimTraceObserver
from .trace import (
    NULL_SPAN,
    NULL_TRACER,
    AnyTracer,
    Event,
    JsonlSink,
    ListSink,
    NullSink,
    NullTracer,
    RingBufferSink,
    Sink,
    Span,
    Tracer,
)
from .tree import (
    SpanNode,
    build_tree,
    check_causal_chains,
    load_jsonl,
    render_tree,
    validate_records,
)

__all__ = [
    "AnyTracer",
    "Counter",
    "Event",
    "Gauge",
    "Histogram",
    "JsonlSink",
    "ListSink",
    "MetricsRegistry",
    "NULL_SPAN",
    "NULL_TRACER",
    "NullSink",
    "NullTracer",
    "ObsConfig",
    "PipelineObs",
    "RingBufferSink",
    "SimTraceObserver",
    "Sink",
    "Span",
    "SpanNode",
    "StageProfile",
    "merge_stage_dicts",
    "Tracer",
    "build_tree",
    "canonical_jsonl",
    "canonicalize",
    "check_causal_chains",
    "load_jsonl",
    "render_tree",
    "validate_records",
]
