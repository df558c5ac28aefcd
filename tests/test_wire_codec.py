"""Tests of the one telemetry wire codec, ``to_wire`` / ``from_wire``.

Every telemetry dataclass crosses process boundaries (shard worker →
router → ``/debug/*`` → ``repro slow``) through the same two functions.
The property here: for any trace, stitched trace or record, including
non-finite floats, empty lists and missing stats, a round trip through
*strict* JSON gives back an equal value with an equal ``signature()``.
``tests/data/legacy_telemetry_wire.json`` holds payloads written by the
hand-written per-type encoders the codec replaced; they must still
decode and render exactly as they did.
"""

from __future__ import annotations

import json
import math
from dataclasses import fields, is_dataclass
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.results import QueryStats
from repro.observability import (
    BlockSearchEvent,
    PlanStepEvent,
    QueryTrace,
    SelectionEvent,
    ShardScatterEvent,
    Span,
    StitchedTrace,
    TraceContext,
    TraceRecord,
    from_wire,
    to_wire,
)

from .test_service_server import strict_loads

LEGACY = Path(__file__).parent / "data" / "legacy_telemetry_wire.json"


def strict_round_trip(cls, value):
    """``from_wire(cls, ...)`` of ``value`` sent through strict JSON."""
    return from_wire(cls, strict_loads(json.dumps(to_wire(value), allow_nan=False)))


def same(a, b) -> bool:
    """Deep equality that treats NaN as equal to NaN and checks types."""
    if type(a) is not type(b):
        return False
    if is_dataclass(a):
        return all(same(getattr(a, f.name), getattr(b, f.name)) for f in fields(a))
    if isinstance(a, float):
        return a == b or (math.isnan(a) and math.isnan(b))
    if isinstance(a, (list, tuple)):
        return len(a) == len(b) and all(same(x, y) for x, y in zip(a, b))
    if isinstance(a, dict):
        return list(a) == list(b) and all(same(a[k], b[k]) for k in a)
    return a == b


# ----------------------------------------------------------------- strategies

ints = st.integers(-(2**40), 2**40)
any_float = st.floats()  # NaN and ±inf included
# Query parameters (tau) and merged distances are never NaN: the walk
# reads tau from validated params and queries must be finite.  Only a
# ratio, a window bound or a timing can be NaN.
no_nan = st.floats(allow_nan=False)
pair = st.tuples(ints, ints)
text = st.text(max_size=8)
# An untyped span tag reads the non-finite spellings back as floats, so
# a tag string may not be one of them.
tag = st.one_of(
    ints, any_float, st.booleans(), text.filter(lambda s: s not in ("inf", "-inf", "nan"))
)

selection_events = st.builds(
    SelectionEvent,
    block_index=ints,
    height=ints,
    positions=pair,
    overlap=ints,
    ratio=any_float,
    tau=no_nan,
    decision=text,
    reason=text,
)
block_events = st.builds(
    BlockSearchEvent,
    block_index=ints,
    height=ints,
    positions=pair,
    window=pair,
    built=st.booleans(),
    strategy=text,
    reason=text,
    nodes_visited=ints,
    distance_evaluations=ints,
    seconds=any_float,
    n_results=ints,
    started=any_float,
    tier=text,
)
plan_events = st.builds(
    PlanStepEvent,
    strategy=text,
    blocks=st.lists(ints, max_size=4).map(tuple),
    rows=pair,
    est_us=any_float,
    actual_us=any_float,
)
shard_events = st.builds(
    ShardScatterEvent,
    shard=ints,
    pruned=st.booleans(),
    failed=st.booleans(),
    n_results=ints,
    distance_evaluations=ints,
    seconds=any_float,
    started=any_float,
    retries=ints,
)
stats = st.none() | st.builds(
    QueryStats,
    blocks_searched=ints,
    graph_blocks=ints,
    nodes_visited=ints,
    distance_evaluations=ints,
    window_size=ints,
)
traces = st.builds(
    QueryTrace,
    k=ints,
    t_start=any_float,
    t_end=any_float,
    tau=any_float,
    selection_mode=text,
    brute_force_threshold=st.none() | ints,
    window_positions=pair,
    selection=st.lists(selection_events, max_size=4),
    blocks=st.lists(block_events, max_size=3),
    plan=st.lists(plan_events, max_size=3),
    shards=st.lists(shard_events, max_size=3),
    result_positions=st.lists(ints, max_size=4).map(tuple),
    result_distances=st.lists(no_nan, max_size=4).map(tuple),
    stats=stats,
    seconds=any_float,
)
spans = st.builds(
    Span,
    name=text,
    trace_id=text,
    span_id=text,
    parent_id=st.none() | text,
    started=any_float,
    seconds=any_float,
    tags=st.dictionaries(text, tag, max_size=4),
)
stitched_traces = st.builds(
    StitchedTrace,
    trace_id=text,
    root=spans,
    spans=st.lists(spans, max_size=3),
    shard_traces=st.dictionaries(ints, traces, max_size=2),
    router_trace=st.none() | traces,
)
records = st.builds(
    TraceRecord,
    trace_id=text,
    source=text,
    seconds=any_float,
    k=ints,
    t_start=any_float,
    t_end=any_float,
    slow=st.booleans(),
    sampled=st.booleans(),
    unix_time=any_float,
    trace=st.none() | traces,
    stitched=st.none() | stitched_traces,
)


def signatures(value):
    """Every ``QueryTrace.signature()`` reachable from ``value``."""
    if isinstance(value, QueryTrace):
        return [value.signature()]
    if isinstance(value, StitchedTrace):
        inner = [*value.shard_traces.values(), value.router_trace]
    else:
        inner = [value.trace, value.stitched]
    return [sig for v in inner if v is not None for sig in signatures(v)]


class TestRoundTripProperty:
    @settings(max_examples=150, deadline=None)
    @given(st.one_of(traces, stitched_traces, records))
    def test_strict_json_round_trip_is_lossless(self, value):
        got = strict_round_trip(type(value), value)
        assert same(got, value)
        assert signatures(got) == signatures(value)

    @settings(max_examples=50, deadline=None)
    @given(spans)
    def test_spans_and_contexts_round_trip(self, span):
        assert same(strict_round_trip(Span, span), span)
        ctx = TraceContext(span.trace_id, span.span_id, span.parent_id)
        assert strict_round_trip(TraceContext, ctx) == ctx

    def test_non_finite_floats_are_spelled_as_strings(self):
        trace = QueryTrace(t_start=-math.inf, t_end=math.inf)
        wire = to_wire(trace)
        assert (wire["t_start"], wire["t_end"], wire["tau"]) == ("-inf", "inf", "nan")
        # float() reads the spellings back, as any older decoder does.
        assert float(wire["t_start"]) == -math.inf


@pytest.fixture(scope="module")
def legacy():
    # Written with the lenient encoder: NaN and -Infinity tokens included.
    return json.loads(LEGACY.read_text())


class TestLegacyPayloads:
    """Payloads written by the per-type encoders the codec replaced."""

    @pytest.mark.parametrize(
        "name, cls",
        [("trace", QueryTrace), ("stitched", StitchedTrace), ("record", TraceRecord)],
    )
    def test_keys_are_unchanged(self, legacy, name, cls):
        def shape(value):
            if isinstance(value, dict):
                return {k: shape(v) for k, v in value.items()}
            if isinstance(value, list):
                return [shape(v) for v in value]
            return None

        assert shape(to_wire(from_wire(cls, legacy[name]))) == shape(legacy[name])

    def test_trace_decodes_and_renders_as_before(self, legacy):
        trace = from_wire(QueryTrace, legacy["trace"])
        assert any(math.isnan(e.ratio) for e in trace.selection)
        assert trace.render() == legacy["renders"]["trace"]

    def test_stitched_decodes_and_renders_as_before(self, legacy):
        stitched = from_wire(StitchedTrace, legacy["stitched"])
        assert set(stitched.shard_traces) == {0, 1}
        assert stitched.root.tags["t_start"] == -math.inf
        assert stitched.render() == legacy["renders"]["stitched"]

    def test_record_decodes_and_renders_as_before(self, legacy):
        record = from_wire(TraceRecord, legacy["record"])
        assert record.source == "router" and record.sampled
        assert record.stitched.render() == legacy["renders"]["record"]
        again = strict_round_trip(TraceRecord, record)
        assert same(again, record)

    def test_context_decodes(self, legacy):
        ctx = from_wire(TraceContext, legacy["context"])
        assert ctx.parent_id == legacy["context"]["parent_id"]
        # Older writers left a root's parent_id out altogether.
        root = {k: v for k, v in legacy["context"].items() if k != "parent_id"}
        assert from_wire(TraceContext, root).parent_id is None
