"""repro.obs — unified metrics, tracing, and profiling for the LSVD stack.

One :class:`Registry` of named counters/gauges/histograms shared by the
volume, caches, block store, collector, replicator and the timed runtime;
one :class:`Trace` of typed events stamped from a virtual clock.  See
DESIGN.md "Observability" for the naming scheme and determinism rules.
"""

from repro.obs.export import (
    metrics_json,
    prometheus_text,
    registry_csv,
    write_bench_json,
    write_bench_sections_json,
    write_metrics_json,
)
from repro.obs.metrics import (
    DEFAULT_LATENCY_BUCKETS,
    DEFAULT_SIZE_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    Registry,
    bind_metrics,
    gauge_field,
    metric_field,
)
from repro.obs.spans import (
    NULL_SPAN,
    CriticalPathAnalyzer,
    Span,
    SpanRecorder,
    attribute,
    dump_last_flight,
    format_stage_table,
    format_tree,
)
from repro.obs.timing import TimedStore
from repro.obs.trace import EVENT_TYPES, Trace, TraceEvent

__all__ = [
    "Counter",
    "CriticalPathAnalyzer",
    "DEFAULT_LATENCY_BUCKETS",
    "DEFAULT_SIZE_BUCKETS",
    "EVENT_TYPES",
    "Gauge",
    "Histogram",
    "NULL_SPAN",
    "Registry",
    "Span",
    "SpanRecorder",
    "TimedStore",
    "Trace",
    "TraceEvent",
    "attribute",
    "bind_metrics",
    "dump_last_flight",
    "format_stage_table",
    "format_tree",
    "gauge_field",
    "metric_field",
    "metrics_json",
    "prometheus_text",
    "registry_csv",
    "write_bench_json",
    "write_bench_sections_json",
    "write_metrics_json",
]
