"""Unit tests of distributed-trace propagation primitives and codecs.

Covers :mod:`repro.observability.tracing`: trace/span identity, context
propagation, the lossless ``QueryTrace`` wire codec, and stitched-trace
assembly/rendering.  End-to-end propagation through a live router is in
``tests/test_distributed_trace.py``.
"""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro import MBIConfig, MultiLevelBlockIndex
from repro.core.results import QueryStats
from repro.observability.trace import QueryTrace
from repro.observability.tracing import (
    Span,
    StitchedTrace,
    TraceContext,
    from_wire,
    mint_span_id,
    mint_trace_id,
    to_wire,
)

from .conftest import small_mbi_config


class TestIds:
    def test_trace_ids_are_128_bit_hex(self):
        tid = mint_trace_id()
        assert len(tid) == 32
        int(tid, 16)  # parses as hex
        assert tid == tid.lower()

    def test_span_ids_are_64_bit_hex(self):
        sid = mint_span_id()
        assert len(sid) == 16
        int(sid, 16)

    def test_ids_are_distinct(self):
        assert len({mint_trace_id() for _ in range(64)}) == 64

    def test_minting_never_touches_numpy_global_state(self):
        # Ids come from os.urandom; answer-relevant RNG streams (numpy
        # Generators seeded per query) must be unaffected by minting.
        rng_a = np.random.default_rng(3)
        rng_b = np.random.default_rng(3)
        expected = rng_a.random()
        for _ in range(10):
            mint_trace_id()
            mint_span_id()
        assert rng_b.random() == expected


class TestTraceContext:
    def test_root_has_no_parent(self):
        ctx = TraceContext.root()
        assert ctx.parent_id is None
        assert len(ctx.trace_id) == 32
        assert len(ctx.span_id) == 16

    def test_child_shares_trace_and_parents_to_origin(self):
        root = TraceContext.root()
        child = root.child()
        assert child.trace_id == root.trace_id
        assert child.parent_id == root.span_id
        assert child.span_id != root.span_id
        grandchild = child.child()
        assert grandchild.parent_id == child.span_id

    def test_wire_round_trip(self):
        for ctx in (TraceContext.root(), TraceContext.root().child()):
            wire = json.loads(json.dumps(to_wire(ctx)))
            assert from_wire(TraceContext, wire) == ctx

    def test_root_wire_carries_null_parent(self):
        # Every field is on the wire; a root's parent is null, which the
        # older hand-written decoder also read back as None.
        wire = json.loads(json.dumps(to_wire(TraceContext.root())))
        assert wire["parent_id"] is None
        assert from_wire(TraceContext, wire).parent_id is None

    def test_contexts_are_frozen(self):
        ctx = TraceContext.root()
        with pytest.raises(AttributeError):
            ctx.trace_id = "forged"


class TestSpanCodec:
    def test_round_trip_preserves_everything(self):
        span = Span(
            name="shard[2]",
            trace_id=mint_trace_id(),
            span_id=mint_span_id(),
            parent_id=mint_span_id(),
            started=0.0015,
            seconds=0.25,
            tags={"shard": 2, "status": "ok", "retries": 1},
        )
        got = from_wire(Span, json.loads(json.dumps(to_wire(span))))
        assert got == span

    def test_defaults_survive_sparse_payloads(self):
        got = from_wire(Span, {"name": "x", "trace_id": "t", "span_id": "s"})
        assert got.parent_id is None
        assert got.started == 0.0
        assert got.seconds == 0.0
        assert got.tags == {}


@pytest.fixture(scope="module")
def explained_trace(clustered_data):
    """A real, fully populated QueryTrace from a small index."""
    vectors, timestamps, queries = clustered_data
    index = MultiLevelBlockIndex(
        vectors.shape[1], "euclidean", small_mbi_config(leaf_size=100)
    )
    index.extend(vectors, timestamps)
    return index.explain(queries[0], 10, 20.0, 80.0)


class TestQueryTraceCodec:
    def test_round_trip_preserves_signature(self, explained_trace):
        wire = json.loads(json.dumps(to_wire(explained_trace)))
        got = from_wire(QueryTrace, wire)
        assert got.signature() == explained_trace.signature()

    def test_round_trip_preserves_signature_with_nan_ratios(self):
        # Leaves and virtual blocks compute no ratio (NaN); a decoded NaN
        # is a fresh object, so the signature must not hold NaN itself.
        rng = np.random.default_rng(5)
        index = MultiLevelBlockIndex(6, "euclidean", MBIConfig(leaf_size=8))
        index.extend(rng.standard_normal((100, 6)), np.arange(100.0))
        trace = index.explain(np.zeros(6), 5, 10.0, 77.0)
        assert any(np.isnan(e.ratio) for e in trace.selection)
        got = from_wire(QueryTrace, json.loads(json.dumps(to_wire(trace))))
        assert got.signature() == trace.signature()

    def test_round_trip_preserves_fields(self, explained_trace):
        got = from_wire(QueryTrace, to_wire(explained_trace))
        assert got.k == explained_trace.k
        assert got.tau == explained_trace.tau
        assert got.selection_mode == explained_trace.selection_mode
        assert got.window_positions == explained_trace.window_positions
        assert got.selection == explained_trace.selection
        assert got.blocks == explained_trace.blocks
        assert got.stats == explained_trace.stats
        assert got.seconds == explained_trace.seconds

    def test_round_trip_preserves_shard_events(self):
        trace = QueryTrace(k=3)
        trace.record_shard(
            1, False, False, 3, 99, seconds=0.5, started=0.1, retries=2
        )
        trace.stats = QueryStats(blocks_searched=2, distance_evaluations=99)
        got = from_wire(QueryTrace, json.loads(json.dumps(to_wire(trace))))
        assert got.shards == trace.shards
        assert got.stats == trace.stats

    def test_round_trip_renders_identically(self, explained_trace):
        got = from_wire(QueryTrace, to_wire(explained_trace))
        assert got.render() == explained_trace.render()

    def test_planner_threshold_round_trips_as_null(self, explained_trace):
        # The default SearchParams leave strategy to the block planner.
        assert explained_trace.brute_force_threshold is None
        wire = json.loads(json.dumps(to_wire(explained_trace)))
        assert wire["brute_force_threshold"] is None
        got = from_wire(QueryTrace, wire)
        assert got.brute_force_threshold is None
        assert got.plan == explained_trace.plan
        assert "brute-force threshold: planner" in got.render()

    def test_decodes_payload_without_a_plan(self, explained_trace):
        # Writers older than the block planner always sent an int threshold
        # and no "plan" key.
        wire = to_wire(explained_trace)
        wire["brute_force_threshold"] = 64
        del wire["plan"]
        got = from_wire(QueryTrace, json.loads(json.dumps(wire)))
        assert got.brute_force_threshold == 64
        assert got.plan == []
        assert got.blocks == explained_trace.blocks
        assert "brute-force threshold: 64" in got.render()


class TestStitchedTrace:
    def _stitched(self, explained_trace) -> StitchedTrace:
        ctx = TraceContext.root()
        children = [ctx.child(), ctx.child()]
        root = Span(
            name="router.search",
            trace_id=ctx.trace_id,
            span_id=ctx.span_id,
            seconds=0.02,
            tags={"k": 10, "fanout": 2},
        )
        spans = [
            Span(
                name=f"shard[{i}]",
                trace_id=ctx.trace_id,
                span_id=children[i].span_id,
                parent_id=ctx.span_id,
                started=0.001 * i,
                seconds=0.01,
                tags={"shard": i, "status": "ok", "retries": i},
            )
            for i in range(2)
        ]
        return StitchedTrace(
            trace_id=ctx.trace_id,
            root=root,
            spans=spans,
            shard_traces={0: explained_trace},
        )

    def test_seconds_is_the_root_duration(self, explained_trace):
        assert self._stitched(explained_trace).seconds == 0.02

    def test_shard_spans_parent_to_root(self, explained_trace):
        stitched = self._stitched(explained_trace)
        assert stitched.root.parent_id is None
        for span in stitched.spans:
            assert span.parent_id == stitched.root.span_id
            assert span.trace_id == stitched.trace_id

    def test_render_nests_worker_traces_under_spans(self, explained_trace):
        text = self._stitched(explained_trace).render()
        lines = text.splitlines()
        assert lines[0].startswith("trace ")
        assert "router.search" in lines[0]
        assert any("span shard[0]" in line for line in lines)
        assert any("span shard[1]" in line for line in lines)
        # Shard 1 retried; shard 0 did not.
        shard1 = next(line for line in lines if "span shard[1]" in line)
        assert "retries 1" in shard1
        shard0 = next(line for line in lines if "span shard[0]" in line)
        assert "retries" not in shard0
        # Shard 0's local QueryTrace renders indented beneath its span.
        nested = [line for line in lines if line.startswith("    ")]
        assert any("TkNN query" in line for line in nested)
        assert any("block selection walk:" in line for line in nested)

    def test_wire_round_trip(self, explained_trace):
        stitched = self._stitched(explained_trace)
        wire = json.loads(json.dumps(to_wire(stitched)))
        got = from_wire(StitchedTrace, wire)
        assert got.trace_id == stitched.trace_id
        assert got.root == stitched.root
        assert got.spans == stitched.spans
        assert set(got.shard_traces) == {0}  # int keys survive JSON
        assert (
            got.shard_traces[0].signature()
            == stitched.shard_traces[0].signature()
        )
        assert got.router_trace is None
        assert got.render() == stitched.render()

    def test_legacy_parallel_flag_is_ignored(self, explained_trace):
        # Traces written while a query thread pool existed carry a
        # "parallel" flag per QueryTrace payload; decoding drops it.
        stitched = self._stitched(explained_trace)
        wire = json.loads(json.dumps(to_wire(stitched)))
        for payload in wire["shard_traces"].values():
            payload["parallel"] = True
        got = from_wire(StitchedTrace, wire)
        assert (
            got.shard_traces[0].signature()
            == stitched.shard_traces[0].signature()
        )
        assert got.render() == stitched.render()
