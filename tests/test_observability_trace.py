"""Unit tests of QueryTrace, explain(), and trace aggregation."""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro import MultiLevelBlockIndex, QueryTrace, summarize_traces
from repro.observability.trace import (
    BlockSearchEvent,
    SelectionEvent,
    TraceSummary,
    merge_traces_stats,
)

from .conftest import small_mbi_config


@pytest.fixture(scope="module")
def traced_index(clustered_data):
    vectors, timestamps, _ = clustered_data
    index = MultiLevelBlockIndex(
        vectors.shape[1], "euclidean", small_mbi_config(leaf_size=100)
    )
    index.extend(vectors, timestamps)
    return index


class TestExplain:
    def test_explain_returns_populated_trace(self, traced_index, clustered_data):
        _, timestamps, queries = clustered_data
        trace = traced_index.explain(queries[0], 10, 20.0, 80.0)
        assert isinstance(trace, QueryTrace)
        assert trace.k == 10
        assert trace.t_start == 20.0
        assert trace.t_end == 80.0
        assert trace.tau == traced_index.config.tau
        assert trace.selection_mode == traced_index.config.selection_mode
        assert trace.window_size > 0
        assert len(trace.selection) >= 1
        assert len(trace.blocks) >= 1
        assert trace.stats is not None
        assert trace.seconds > 0.0

    def test_explain_matches_untraced_search(self, traced_index, clustered_data):
        _, _, queries = clustered_data
        rng_a = np.random.default_rng(11)
        rng_b = np.random.default_rng(11)
        result = traced_index.search(queries[1], 7, 10.0, 90.0, rng=rng_a)
        trace = traced_index.explain(queries[1], 7, 10.0, 90.0, rng=rng_b)
        assert trace.result_positions == tuple(int(p) for p in result.positions)
        assert trace.stats == result.stats

    def test_selected_blocks_match_block_searches(
        self, traced_index, clustered_data
    ):
        _, _, queries = clustered_data
        trace = traced_index.explain(queries[2], 5, 25.0, 60.0)
        selected_ids = sorted(e.block_index for e in trace.selected)
        searched_ids = sorted(e.block_index for e in trace.blocks)
        assert selected_ids == searched_ids

    def test_empty_window_trace(self, traced_index, clustered_data):
        _, _, queries = clustered_data
        trace = traced_index.explain(queries[0], 5, 200.0, 300.0)
        assert trace.window_size == 0
        assert trace.blocks == []
        assert trace.stats is not None
        assert trace.stats.blocks_searched == 0

    def test_multi_block_signature_is_reproducible(
        self, traced_index, clustered_data
    ):
        _, _, queries = clustered_data
        # tau=0.95 keeps the walk descending, so several blocks are searched.
        first, second = (
            traced_index.explain(
                queries[0], 10, 5.0, 95.0,
                rng=np.random.default_rng(3), tau=0.95,
            )
            for _ in range(2)
        )
        assert len(first.blocks) >= 2
        assert first.signature() == second.signature()
        # Blocks run one after another, so their spans start in order.
        starts = [e.started for e in first.blocks]
        assert starts[0] >= 0.0
        assert starts == sorted(starts)

    def test_render_mentions_key_facts(self, traced_index, clustered_data):
        _, _, queries = clustered_data
        trace = traced_index.explain(queries[3], 10, 20.0, 80.0)
        text = trace.render()
        assert "TkNN query: k=10" in text
        assert "block selection walk:" in text
        assert "block searches:" in text
        assert "merge: kept" in text
        assert "tau=" in text
        # Every searched block appears with its strategy.
        for event in trace.blocks:
            assert f"block {event.block_index:>4}" in text
            assert event.strategy in text


class TestNoTracePathAllocatesNothing:
    def test_search_never_constructs_trace_objects(
        self, traced_index, clustered_data, monkeypatch
    ):
        _, _, queries = clustered_data

        def boom(*args, **kwargs):  # pragma: no cover - must not run
            raise AssertionError("trace object constructed on untraced path")

        import repro.core.mbi as mbi_mod
        import repro.observability.trace as trace_mod

        monkeypatch.setattr(mbi_mod, "QueryTrace", boom)
        monkeypatch.setattr(trace_mod, "SelectionEvent", boom)
        monkeypatch.setattr(trace_mod, "BlockSearchEvent", boom)
        # Untraced search works fine...
        result = traced_index.search(queries[0], 5, 10.0, 90.0)
        assert len(result) == 5
        # ...while explain (which does construct a trace) now trips the trap.
        with pytest.raises(AssertionError):
            traced_index.explain(queries[0], 5, 10.0, 90.0)

    def test_batch_without_sink_constructs_no_traces(
        self, traced_index, clustered_data, monkeypatch
    ):
        vectors, _, queries = clustered_data

        def boom(*args, **kwargs):  # pragma: no cover - must not run
            raise AssertionError("trace object constructed on untraced path")

        import repro.core.mbi as mbi_mod

        monkeypatch.setattr(mbi_mod, "QueryTrace", boom)
        results = traced_index.search_batch(queries[:3], 5, 10.0, 90.0)
        assert len(results) == 3


class TestBatchTraceSink:
    def test_sink_receives_one_trace_per_query_in_order(
        self, traced_index, clustered_data
    ):
        _, _, queries = clustered_data
        sink: list[QueryTrace] = []
        results = traced_index.search_batch(
            queries[:4],
            5,
            10.0,
            90.0,
            rng=np.random.default_rng(3),
            trace_sink=sink,
        )
        assert len(sink) == len(results) == 4
        for result, trace in zip(results, sink):
            assert trace.stats == result.stats
            assert trace.result_positions == tuple(
                int(p) for p in result.positions
            )

    def test_batch_traces_match_single_query_explains(
        self, traced_index, clustered_data
    ):
        _, _, queries = clustered_data
        sink: list[QueryTrace] = []
        traced_index.search_batch(
            queries[:6], 5, 10.0, 90.0,
            rng=np.random.default_rng(5), trace_sink=sink,
        )
        seeds = np.random.default_rng(5).integers(0, 2**63 - 1, size=6)
        explained = [
            traced_index.explain(
                query, 5, 10.0, 90.0, rng=np.random.default_rng(int(seed))
            )
            for query, seed in zip(queries[:6], seeds)
        ]
        assert [t.signature() for t in sink] == [
            t.signature() for t in explained
        ]


class TestSummaries:
    def test_summarize_traces_aggregates(self, traced_index, clustered_data):
        _, _, queries = clustered_data
        sink: list[QueryTrace] = []
        traced_index.search_batch(
            queries[:5], 5, 10.0, 90.0, trace_sink=sink,
            rng=np.random.default_rng(0),
        )
        summary = summarize_traces(sink)
        assert summary.n_queries == 5
        assert summary.mean_blocks_searched >= 1.0
        assert summary.max_blocks_searched >= 1
        assert summary.graph_block_fraction + summary.brute_block_fraction == (
            pytest.approx(1.0)
        )
        assert summary.mean_distance_evaluations == pytest.approx(
            sum(t.stats.distance_evaluations for t in sink) / 5
        )

    def test_summarize_empty_is_nan_safe(self):
        summary = summarize_traces([])
        assert summary.n_queries == 0
        assert math.isnan(summary.mean_blocks_searched)

    def test_summary_rows_round_trip_through_reporting(self):
        from repro.eval.reporting import (
            format_trace_summaries,
            format_trace_summary,
        )

        summary = TraceSummary(
            n_queries=3,
            mean_window_size=100.0,
            mean_blocks_searched=2.0,
            max_blocks_searched=3,
            graph_block_fraction=0.5,
            brute_block_fraction=0.5,
            mean_nodes_visited=40.0,
            mean_distance_evaluations=200.0,
            mean_seconds=0.001,
        )
        single = format_trace_summary(summary, title="traces")
        assert "traces" in single
        assert "mean blocks searched" in single
        multi = format_trace_summaries({"f=0.1": summary, "f=0.5": summary})
        assert "f=0.1" in multi and "f=0.5" in multi

    def test_merge_traces_stats_merges(self, traced_index, clustered_data):
        _, _, queries = clustered_data
        traces = [
            traced_index.explain(queries[i], 5, 10.0, 90.0) for i in range(3)
        ]
        merged = merge_traces_stats(traces)
        assert merged.blocks_searched == sum(
            t.stats.blocks_searched for t in traces
        )
        assert merged.distance_evaluations == sum(
            t.stats.distance_evaluations for t in traces
        )


class TestShardRender:
    """ISSUE 10 satellite: per-shard scatter spans with timing + retries."""

    def _trace_with_shards(self) -> QueryTrace:
        trace = QueryTrace(k=5, t_start=0.0, t_end=10.0)
        trace.record_shard(
            0, False, False, 5, 120, seconds=0.004, started=0.0
        )
        trace.record_shard(
            1, False, False, 3, 80, seconds=0.012, started=0.001, retries=2
        )
        trace.record_shard(2, True, False, 0, 0)
        trace.record_shard(3, False, True, 0, 0, retries=1)
        return trace

    def test_render_shows_timing_and_retries(self):
        text = self._trace_with_shards().render()
        assert "shard scatter:" in text
        # Timing span @start+duration in ms, retries only when nonzero.
        assert "shard   0 ok" in text
        assert "@  0.000+4.000 ms" in text
        assert "@  1.000+12.000 ms  retries 2" in text
        assert "shard   2 pruned" in text
        assert "shard   3 FAILED" in text
        assert "retries 1" in text
        # Regression: a clean shard renders no retries suffix.
        ok_line = next(
            line for line in text.splitlines() if "shard   0" in line
        )
        assert "retries" not in ok_line

    def test_retries_are_excluded_from_signature(self):
        a = self._trace_with_shards()
        b = QueryTrace(k=5, t_start=0.0, t_end=10.0)
        b.record_shard(0, False, False, 5, 120)
        b.record_shard(1, False, False, 3, 80)
        b.record_shard(2, True, False, 0, 0)
        b.record_shard(3, False, True, 0, 0)
        assert a.signature() == b.signature()


class TestSummaryQuantiles:
    """ISSUE 10 satellite: p50/p95/p99 over per-trace latency samples."""

    def _traces(self, latencies):
        traces = []
        for seconds in latencies:
            trace = QueryTrace(k=1, seconds=seconds)
            traces.append(trace)
        return traces

    def test_quantiles_interpolate_order_statistics(self):
        # 0.01..0.05: p50 is the middle sample; p95/p99 interpolate
        # between the two largest.
        summary = summarize_traces(
            self._traces([0.05, 0.01, 0.03, 0.02, 0.04])
        )
        assert summary.p50_seconds == pytest.approx(0.03)
        assert summary.p95_seconds == pytest.approx(0.048)
        assert summary.p99_seconds == pytest.approx(0.0496)
        assert (
            summary.p50_seconds
            <= summary.p95_seconds
            <= summary.p99_seconds
        )

    def test_single_trace_quantiles_are_its_latency(self):
        summary = summarize_traces(self._traces([0.25]))
        assert summary.p50_seconds == 0.25
        assert summary.p95_seconds == 0.25
        assert summary.p99_seconds == 0.25

    def test_empty_quantiles_are_nan(self):
        summary = summarize_traces([])
        assert math.isnan(summary.p50_seconds)
        assert math.isnan(summary.p95_seconds)
        assert math.isnan(summary.p99_seconds)

    def test_as_rows_includes_quantiles(self):
        rows = dict(summarize_traces(self._traces([0.1, 0.2])).as_rows())
        assert rows["p50 seconds"] == pytest.approx(0.15)
        assert rows["p95 seconds"] == pytest.approx(0.195)
        assert rows["p99 seconds"] == pytest.approx(0.199)


class TestEvents:
    def test_selection_events_are_frozen_and_comparable(self):
        a = SelectionEvent(1, 0, (0, 8), 4, 0.5, 0.5, "selected", "leaf")
        b = SelectionEvent(1, 0, (0, 8), 4, 0.5, 0.5, "selected", "leaf")
        assert a == b
        with pytest.raises(AttributeError):
            a.overlap = 5

    def test_block_events_are_frozen(self):
        e = BlockSearchEvent(
            1, 0, (0, 8), (0, 8), True, "graph", "built-block", 3, 10, 0.1, 2
        )
        with pytest.raises(AttributeError):
            e.strategy = "brute"
