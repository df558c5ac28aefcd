"""Cross-checks a QueryTrace against the invariants Algorithm 4 promises.

For randomized TkNN workloads, every trace must show:

* the selected blocks' clipped windows are pairwise disjoint,
* their union is exactly the query's position window,
* per-block distance counters sum to the query's total,
* with ``brute_force_threshold`` pinned to an int, brute force is chosen
  exactly when the block is an open leaf or its in-window span is at most
  the threshold; with the default ``None``, every block is searched the
  way the block planner's plan says.

These are the properties that make EXPLAIN output trustworthy: if any
failed, the trace would describe a different query than the one answered.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import MultiLevelBlockIndex, SearchParams
from repro.core import planner
from repro.observability.trace import SELECTED

from .conftest import small_mbi_config


@pytest.fixture(scope="module")
def index_and_data(clustered_data):
    vectors, timestamps, queries = clustered_data
    index = MultiLevelBlockIndex(
        vectors.shape[1], "euclidean", small_mbi_config(leaf_size=100)
    )
    index.extend(vectors, timestamps)
    return index, timestamps, queries


def _random_windows(timestamps, n, seed):
    rng = np.random.default_rng(seed)
    t_lo, t_hi = float(timestamps[0]), float(timestamps[-1])
    for _ in range(n):
        a, b = np.sort(rng.uniform(t_lo - 5.0, t_hi + 5.0, size=2))
        yield float(a), float(b)


def _traces(index_and_data, n=25, seed=123, params=None):
    index, timestamps, queries = index_and_data
    rng = np.random.default_rng(seed)
    for i, (t_start, t_end) in enumerate(
        _random_windows(timestamps, n, seed)
    ):
        query = queries[i % len(queries)]
        k = int(rng.integers(1, 20))
        yield index.explain(query, k, t_start, t_end, params=params, rng=rng)


class TestWindowCoverage:
    def test_block_windows_are_pairwise_disjoint(self, index_and_data):
        for trace in _traces(index_and_data):
            spans = sorted(e.window for e in trace.blocks)
            for (_, prev_stop), (start, _) in zip(spans, spans[1:]):
                assert prev_stop <= start, trace.render()

    def test_block_windows_union_covers_the_query_window(
        self, index_and_data
    ):
        for trace in _traces(index_and_data):
            lo, hi = trace.window_positions
            if hi <= lo:
                assert trace.blocks == []
                continue
            spans = sorted(e.window for e in trace.blocks)
            assert spans, trace.render()
            assert spans[0][0] == lo
            assert spans[-1][1] == hi
            # Gap-free: each block picks up where the previous stopped.
            for (_, prev_stop), (start, _) in zip(spans, spans[1:]):
                assert prev_stop == start, trace.render()
            assert sum(stop - start for start, stop in spans) == hi - lo

    def test_each_block_window_is_inside_its_block(self, index_and_data):
        for trace in _traces(index_and_data):
            for event in trace.blocks:
                assert event.positions[0] <= event.window[0]
                assert event.window[1] <= event.positions[1]


class TestCounterConsistency:
    def test_per_block_distance_evals_sum_to_total(self, index_and_data):
        for trace in _traces(index_and_data):
            assert trace.stats is not None
            assert (
                sum(e.distance_evaluations for e in trace.blocks)
                == trace.stats.distance_evaluations
            ), trace.render()

    def test_per_block_nodes_visited_sum_to_total(self, index_and_data):
        for trace in _traces(index_and_data):
            assert (
                sum(e.nodes_visited for e in trace.blocks)
                == trace.stats.nodes_visited
            )

    def test_block_counts_match_stats(self, index_and_data):
        for trace in _traces(index_and_data):
            assert trace.stats.blocks_searched == len(trace.blocks)
            assert trace.stats.graph_blocks == sum(
                1 for e in trace.blocks if e.strategy == "graph"
            )
            lo, hi = trace.window_positions
            assert trace.stats.window_size == max(0, hi - lo)


class TestStrategyRule:
    def test_brute_force_iff_open_leaf_or_short_window(
        self, index_and_data
    ):
        """A pinned int keeps the fixed rule: built + span + S_b decide."""
        params = SearchParams(
            epsilon=1.2, max_candidates=64, brute_force_threshold=64
        )
        saw_brute = saw_graph = False
        for trace in _traces(index_and_data, n=40, seed=7, params=params):
            threshold = trace.brute_force_threshold
            assert threshold == 64
            for event in trace.blocks:
                span = event.window[1] - event.window[0]
                expect_brute = (not event.built) or span <= threshold
                assert (event.strategy == "brute") == expect_brute, (
                    event,
                    threshold,
                )
                if event.strategy == "brute":
                    saw_brute = True
                    assert event.reason in ("open-leaf", "short-window")
                    assert event.nodes_visited == 0
                    # Convention: a scan over m vectors costs exactly m.
                    assert event.distance_evaluations == span
                else:
                    saw_graph = True
                    assert event.reason == "built-block"
        # The randomized workload must exercise both strategies, or the
        # iff above is vacuous.
        assert saw_brute and saw_graph

    def test_default_strategy_is_the_plans(self, index_and_data, monkeypatch):
        """``None`` does what the planner priced, block by block."""
        # At this scale every scan is cheaper than a graph search; pricing
        # rows 20x higher makes the planner walk the larger blocks too, so
        # both strategies are exercised.
        monkeypatch.setattr(
            planner, "SCAN_US_PER_ROW", planner.SCAN_US_PER_ROW * 20
        )
        # ``walkable`` caches its answers for the unpatched table.
        monkeypatch.setattr(planner, "walkable", planner.walkable.__wrapped__)
        index = index_and_data[0]
        saw_brute = saw_graph = saw_coalesced = False
        for trace in _traces(index_and_data, n=40, seed=7):
            assert trace.brute_force_threshold is None
            steps = planner.plan(
                [index.blocks[e.block_index] for e in trace.blocks],
                range(*trace.window_positions),
                index.config.search,
                index.dim,
                len(index),
            )
            planned = [
                (step, block, reason)
                for step in steps
                for block, reason in zip(step.blocks, step.reasons)
            ]
            assert len(planned) == len(trace.blocks)
            for event, (step, block, reason) in zip(trace.blocks, planned):
                rows = range(
                    max(step.rows.start, block.positions.start),
                    min(step.rows.stop, block.positions.stop),
                )
                assert event.strategy == step.strategy, (event, step)
                assert event.window == (rows.start, rows.stop)
                assert event.reason == reason
                if event.strategy == "brute":
                    saw_brute = True
                    assert event.reason in ("open-leaf", "scan-cheaper")
                    assert event.distance_evaluations == len(rows)
                else:
                    saw_graph = True
            # Adjacent scanned blocks ran as one step of the executed plan.
            assert len(trace.plan) == len(steps)
            for event, step in zip(trace.plan, steps):
                assert event.blocks == tuple(block.index for block in step.blocks)
                assert event.rows == (step.rows.start, step.rows.stop)
                assert event.strategy == step.strategy
            if len(trace.blocks) > len(steps):
                saw_coalesced = True
        assert saw_brute and saw_graph and saw_coalesced

    def test_selection_walk_selects_exactly_the_searched_blocks(
        self, index_and_data
    ):
        for trace in _traces(index_and_data):
            selected = sorted(
                e.block_index
                for e in trace.selection
                if e.decision == SELECTED
            )
            searched = sorted(e.block_index for e in trace.blocks)
            assert selected == searched
