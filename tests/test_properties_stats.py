"""Property tests of the QueryStats algebra and its use by search_batch.

The counting convention (see ``repro/core/results.py``) only works if
``QueryStats.merged_with`` behaves like a commutative monoid: per-block
counters, per-query counters, and batch counters must all agree no matter
how partial stats are grouped.  Hypothesis checks the algebra directly;
a seeded MBI workload checks that ``search_batch`` really is the merge of
its per-query ``search`` calls.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import MultiLevelBlockIndex
from repro.core.results import QueryStats

from .conftest import small_mbi_config

counters = st.integers(min_value=0, max_value=2**31)

stats_objects = st.builds(
    QueryStats,
    blocks_searched=counters,
    graph_blocks=counters,
    nodes_visited=counters,
    distance_evaluations=counters,
    window_size=counters,
)


class TestMergeAlgebra:
    @given(a=stats_objects, b=stats_objects, c=stats_objects)
    def test_merge_is_associative(self, a, b, c):
        assert a.merged_with(b).merged_with(c) == a.merged_with(
            b.merged_with(c)
        )

    @given(a=stats_objects, b=stats_objects)
    def test_merge_is_commutative(self, a, b):
        assert a.merged_with(b) == b.merged_with(a)

    @given(a=stats_objects)
    def test_empty_stats_is_identity(self, a):
        identity = QueryStats()
        assert a.merged_with(identity) == a
        assert identity.merged_with(a) == a

    @given(a=stats_objects, b=stats_objects)
    def test_additive_counters_sum_and_window_maxes(self, a, b):
        merged = a.merged_with(b)
        assert merged.blocks_searched == a.blocks_searched + b.blocks_searched
        assert merged.graph_blocks == a.graph_blocks + b.graph_blocks
        assert merged.nodes_visited == a.nodes_visited + b.nodes_visited
        assert merged.distance_evaluations == (
            a.distance_evaluations + b.distance_evaluations
        )
        assert merged.window_size == max(a.window_size, b.window_size)

    @given(scanned=st.integers(min_value=-5, max_value=100))
    def test_brute_force_constructor_clamps(self, scanned):
        stats = QueryStats.for_brute_force(scanned, window_size=7)
        assert stats.blocks_searched == 1
        assert stats.graph_blocks == 0
        assert stats.distance_evaluations == max(0, scanned)
        assert stats.window_size == 7

    @given(
        nodes=st.integers(min_value=0, max_value=100),
        evals=st.integers(min_value=-5, max_value=100),
    )
    def test_graph_constructor_counts_one_graph_block(self, nodes, evals):
        stats = QueryStats.for_graph_search(nodes, evals, window_size=3)
        assert stats.blocks_searched == stats.graph_blocks == 1
        assert stats.nodes_visited == nodes
        assert stats.distance_evaluations == max(0, evals)


class TestBatchIsMergeOfSearches:
    """search_batch over m queries == m independent search() calls."""

    @pytest.fixture(scope="class")
    def built_index(self, clustered_data):
        vectors, timestamps, _ = clustered_data
        index = MultiLevelBlockIndex(
            vectors.shape[1], "euclidean", small_mbi_config(leaf_size=100)
        )
        index.extend(vectors, timestamps)
        return index

    @settings(deadline=None, max_examples=10)
    @given(seed=st.integers(min_value=0, max_value=2**32 - 1))
    def test_batch_stats_match_per_query_merge(
        self, built_index, clustered_data, seed
    ):
        _, _, queries = clustered_data
        batch = queries[:5]
        rng = np.random.default_rng(seed)
        results = built_index.search_batch(batch, 5, 10.0, 90.0, rng=rng)

        # Replicate search_batch's per-query seeding: one child seed per
        # query drawn up front from the caller's generator.
        replay_rng = np.random.default_rng(seed)
        seeds = replay_rng.integers(0, 2**63 - 1, size=len(batch))
        merged_batch = QueryStats()
        merged_single = QueryStats()
        for i, query in enumerate(batch):
            single = built_index.search(
                query, 5, 10.0, 90.0,
                rng=np.random.default_rng(int(seeds[i])),
            )
            assert single.stats == results[i].stats
            np.testing.assert_array_equal(
                single.positions, results[i].positions
            )
            merged_batch = merged_batch.merged_with(results[i].stats)
            merged_single = merged_single.merged_with(single.stats)
        assert merged_batch == merged_single
        assert merged_batch.blocks_searched == sum(
            r.stats.blocks_searched for r in results
        )
        assert merged_batch.distance_evaluations == sum(
            r.stats.distance_evaluations for r in results
        )

    def test_batch_stats_equal_single_query_stats(
        self, built_index, clustered_data
    ):
        _, _, queries = clustered_data
        batch = built_index.search_batch(
            queries[:6], 5, 10.0, 90.0, rng=np.random.default_rng(9)
        )
        seeds = np.random.default_rng(9).integers(0, 2**63 - 1, size=6)
        singles = [
            built_index.search(
                query, 5, 10.0, 90.0, rng=np.random.default_rng(int(seed))
            )
            for query, seed in zip(queries[:6], seeds)
        ]
        assert [r.stats for r in batch] == [r.stats for r in singles]
