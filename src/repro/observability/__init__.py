"""Observability: EXPLAIN traces, metrics, and cluster-wide telemetry.

Four complementary views of the work the library does:

* :mod:`repro.observability.trace` — :class:`QueryTrace`, a per-query record
  of the block-selection walk, per-block strategy choices, timings, and
  counters.  Opt-in per query; the untraced path allocates nothing.
* :mod:`repro.observability.metrics` — :class:`MetricsRegistry`, cheap
  always-on counters/gauges/histograms every subsystem reports into, with
  one JSON-safe state format (``export_state``) that restores, renders as
  Prometheus text, and merges across processes (:func:`aggregate_states`).
* :mod:`repro.observability.tracing` — distributed trace propagation:
  :class:`TraceContext` injected through shard transports, per-hop
  :class:`Span` objects, the router-assembled :class:`StitchedTrace`, and
  the one wire codec for every telemetry type (:func:`to_wire` /
  :func:`from_wire`).
* :mod:`repro.observability.telemetry` — always-on sampled tracing
  (:class:`TraceSampler` + :class:`TraceBuffer`) and the slow-query log.

See ``docs/observability.md`` for the trace schema, the metric naming
convention, sampler configuration, and a ``repro explain`` walkthrough.
"""

from .metrics import (
    DEFAULT_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    aggregate_states,
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
    configure_telemetry,
    get_telemetry,
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
    from_wire,
    mint_span_id,
    mint_trace_id,
    to_wire,
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
    "from_wire",
    "get_registry",
    "get_telemetry",
    "merge_traces_stats",
    "mint_span_id",
    "mint_trace_id",
    "quantile_from_buckets",
    "render_prometheus",
    "summarize_traces",
    "to_wire",
]
