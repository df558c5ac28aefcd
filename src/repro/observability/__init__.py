"""Observability: EXPLAIN traces, metrics, and cluster-wide telemetry.

Four complementary views of the work the library does:

* :mod:`repro.observability.trace` — :class:`QueryTrace`, a per-query record
  of the block-selection walk, per-block strategy choices, timings, and
  counters.  Opt-in per query; the untraced path allocates nothing.
* :mod:`repro.observability.metrics` — :class:`MetricsRegistry`, cheap
  always-on counters/gauges/histograms every subsystem reports into, with
  Prometheus text rendering and a JSON-safe export for cross-process
  scraping.
* :mod:`repro.observability.tracing` — distributed trace propagation:
  :class:`TraceContext` injected through shard transports, per-hop
  :class:`Span` objects, and the router-assembled :class:`StitchedTrace`.
* :mod:`repro.observability.telemetry` — always-on sampled tracing
  (:class:`TraceSampler` + :class:`TraceBuffer`), the slow-query log, and
  fleet metrics aggregation (:func:`aggregate_states`).

See ``docs/observability.md`` for the trace schema, the metric naming
convention, sampler configuration, and a ``repro explain`` walkthrough.
"""

from .metrics import (
    DEFAULT_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    get_registry,
    quantile_from_buckets,
    render_prometheus,
)
from .telemetry import (
    Telemetry,
    TelemetryConfig,
    TraceBuffer,
    TraceRecord,
    TraceSampler,
    aggregate_states,
    configure_telemetry,
    get_telemetry,
    record_from_wire,
    record_to_wire,
)
from .trace import (
    BlockSearchEvent,
    PlanStepEvent,
    QueryTrace,
    SelectionEvent,
    ShardScatterEvent,
    TraceSummary,
    merge_traces_stats,
    summarize_traces,
)
from .tracing import (
    Span,
    StitchedTrace,
    TraceContext,
    mint_span_id,
    mint_trace_id,
    span_from_wire,
    span_to_wire,
    stitched_from_wire,
    stitched_to_wire,
    trace_from_wire,
    trace_to_wire,
)

__all__ = [
    "BlockSearchEvent",
    "Counter",
    "DEFAULT_BUCKETS",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "PlanStepEvent",
    "QueryTrace",
    "SelectionEvent",
    "ShardScatterEvent",
    "Span",
    "StitchedTrace",
    "Telemetry",
    "TelemetryConfig",
    "TraceBuffer",
    "TraceContext",
    "TraceRecord",
    "TraceSampler",
    "TraceSummary",
    "aggregate_states",
    "configure_telemetry",
    "get_registry",
    "get_telemetry",
    "merge_traces_stats",
    "mint_span_id",
    "mint_trace_id",
    "quantile_from_buckets",
    "record_from_wire",
    "record_to_wire",
    "render_prometheus",
    "span_from_wire",
    "span_to_wire",
    "stitched_from_wire",
    "stitched_to_wire",
    "summarize_traces",
    "trace_from_wire",
    "trace_to_wire",
]
