"""Unit tests for the MultiLevelBlockIndex."""

from __future__ import annotations

import numpy as np
import pytest

from repro import (
    EmptyIndexError,
    InvalidQueryError,
    MultiLevelBlockIndex,
    SearchParams,
    TimestampOrderError,
)
from repro.baselines import exact_tknn
from repro.core.tree import leaf_block_index

from .conftest import small_mbi_config


def make_index(n=0, dim=8, leaf_size=16, seed=0, **config_overrides):
    index = MultiLevelBlockIndex(
        dim, "euclidean", small_mbi_config(leaf_size=leaf_size, **config_overrides)
    )
    rng = np.random.default_rng(seed)
    for i in range(n):
        index.insert(rng.standard_normal(dim), float(i))
    return index


class TestInsertion:
    def test_positions_increase(self):
        index = make_index()
        rng = np.random.default_rng(0)
        for i in range(5):
            assert index.insert(rng.standard_normal(8), float(i)) == i

    def test_rejects_decreasing_timestamps(self):
        index = make_index(n=3)
        with pytest.raises(TimestampOrderError):
            index.insert(np.zeros(8), 0.5)

    def test_open_leaf_has_no_graph(self):
        index = make_index(n=10, leaf_size=16)
        blocks = list(index.iter_blocks())
        assert len(blocks) == 1
        assert not blocks[0].is_built

    def test_full_leaf_gets_graph(self):
        index = make_index(n=16, leaf_size=16)
        assert index.blocks[0].is_built

    def test_merge_chain_matches_paper_figure3(self):
        # 16 vectors, leaf 4: blocks 0..6 with heights 0,0,1,0,0,1,2.
        index = make_index(n=16, leaf_size=4)
        expected_heights = {0: 0, 1: 0, 2: 1, 3: 0, 4: 0, 5: 1, 6: 2}
        got = {b.index: b.height for b in index.iter_blocks()}
        assert got == expected_heights
        assert index.blocks[6].positions == range(0, 16)

    def test_num_leaves_and_blocks(self):
        index = make_index(n=50, leaf_size=16)
        assert index.num_leaves == 4  # 3 full + 1 open
        # leaves 0,1,2 full -> blocks 0,1,2(h1),3,4 + open leaf idx 7
        assert leaf_block_index(3) in index.blocks

    def test_build_counters_accumulate(self):
        index = make_index(n=64, leaf_size=16)
        assert index.total_build_seconds > 0
        assert index.total_distance_evaluations > 0

    def test_extend_equals_repeated_insert(self):
        rng = np.random.default_rng(1)
        vectors = rng.standard_normal((48, 8)).astype(np.float32)
        times = np.arange(48, dtype=np.float64)
        a = make_index(leaf_size=16)
        a.extend(vectors, times)
        b = make_index(leaf_size=16)
        for v, t in zip(vectors, times):
            b.insert(v, float(t))
        assert {i: blk.height for i, blk in a.blocks.items()} == {
            i: blk.height for i, blk in b.blocks.items()
        }

    def test_extend_length_mismatch(self):
        index = make_index()
        with pytest.raises(ValueError):
            index.extend(np.zeros((3, 8)), np.zeros(2))


class TestParallelBuild:
    def test_parallel_equals_sequential(self):
        rng = np.random.default_rng(2)
        vectors = rng.standard_normal((64, 8)).astype(np.float32)
        times = np.arange(64, dtype=np.float64)
        seq = make_index(leaf_size=8)
        seq.extend(vectors, times)
        par = make_index(leaf_size=8, parallel=True, max_workers=4)
        par.extend(vectors, times)
        for index in seq.blocks:
            assert seq.blocks[index].graph == par.blocks[index].graph


class TestQueryValidation:
    def test_empty_index_raises(self):
        index = make_index()
        with pytest.raises(EmptyIndexError):
            index.search(np.zeros(8), 1)

    def test_bad_k_raises(self):
        index = make_index(n=4)
        with pytest.raises(InvalidQueryError):
            index.search(np.zeros(8), 0)

    def test_bad_dim_raises(self):
        index = make_index(n=4)
        with pytest.raises(InvalidQueryError):
            index.search(np.zeros(9), 1)

    def test_inverted_window_raises(self):
        index = make_index(n=4)
        with pytest.raises(InvalidQueryError):
            index.search(np.zeros(8), 1, t_start=5.0, t_end=1.0)

    def test_window_outside_data_returns_empty(self):
        index = make_index(n=10)
        result = index.search(np.zeros(8), 3, t_start=1000.0, t_end=2000.0)
        assert len(result) == 0


class TestQueryCorrectness:
    def test_unrestricted_query_high_recall(self, clustered_data):
        vectors, timestamps, queries = clustered_data
        index = MultiLevelBlockIndex(
            vectors.shape[1], "euclidean", small_mbi_config(leaf_size=100)
        )
        index.extend(vectors, timestamps)
        params = SearchParams(
            epsilon=1.25, max_candidates=128, brute_force_threshold=64
        )
        hits = total = 0
        for query in queries:
            result = index.search(query, 10, params=params)
            assert result.stats.graph_blocks > 0
            truth = exact_tknn(index.store, index.metric, query, 10)
            hits += len(set(result.positions.tolist()) & set(truth.positions.tolist()))
            total += 10
        assert hits / total > 0.9

    def test_windowed_query_only_returns_in_window(self, small_index):
        rng = np.random.default_rng(3)
        query = rng.standard_normal(24)
        result = small_index.search(query, 10, t_start=20.0, t_end=40.0)
        assert ((result.timestamps >= 20.0) & (result.timestamps < 40.0)).all()

    def test_result_sorted_and_consistent(self, small_index):
        rng = np.random.default_rng(4)
        query = rng.standard_normal(24)
        result = small_index.search(query, 10, t_start=10.0, t_end=90.0)
        assert (np.diff(result.distances) >= 0).all()
        # Distances actually correspond to the claimed positions.
        for pos, dist in zip(result.positions, result.distances):
            vec, _ = small_index.store.get(int(pos))
            assert small_index.metric(query, vec) == pytest.approx(
                dist, rel=1e-4, abs=1e-5
            )

    def test_window_smaller_than_k(self, small_index):
        query = np.zeros(24)
        ts = small_index.store.timestamps
        result = small_index.search(
            query, 50, t_start=float(ts[5]), t_end=float(ts[9])
        )
        assert 0 < len(result) <= 50
        truth = exact_tknn(
            small_index.store,
            small_index.metric,
            query,
            50,
            float(ts[5]),
            float(ts[9]),
        )
        assert len(result) == len(truth)

    def test_open_leaf_searched_exactly(self):
        # 20 vectors, leaf 16 -> open leaf holds 4; query the tail window.
        index = make_index(n=20, leaf_size=16)
        query = np.zeros(8)
        result = index.search(query, 3, t_start=16.0, t_end=25.0)
        truth = exact_tknn(
            index.store, index.metric, query, 3, 16.0, 25.0
        )
        np.testing.assert_array_equal(
            np.sort(result.positions), np.sort(truth.positions)
        )

    def test_stats_report_blocks(self, small_index):
        query = np.zeros(24)
        result = small_index.search(query, 5, t_start=10.0, t_end=60.0)
        assert result.stats.blocks_searched >= 1
        assert result.stats.window_size > 0

    def test_lemma_4_1_at_most_two_blocks(self, small_index):
        # 16 leaves (complete tree), tau = 0.5.
        rng = np.random.default_rng(5)
        ts = small_index.store.timestamps
        n = len(small_index)
        for _ in range(30):
            a, b = sorted(rng.integers(0, n, 2).tolist())
            if a == b:
                continue
            result = small_index.search(
                rng.standard_normal(24), 5,
                t_start=float(ts[a]),
                t_end=float(ts[b]),
            )
            assert result.stats.blocks_searched <= 2

    def test_duplicate_timestamps_handled(self):
        index = make_index(leaf_size=8)
        rng = np.random.default_rng(6)
        for i in range(32):
            index.insert(rng.standard_normal(8), float(i // 4))  # 4-way ties
        result = index.search(np.zeros(8), 5, t_start=2.0, t_end=3.0)
        assert len(result) == 4  # exactly the tie group at t=2
        assert (result.timestamps == 2.0).all()

    def test_search_with_explicit_rng_is_reproducible(self, small_index):
        query = np.ones(24)
        r1 = small_index.search(
            query, 10, t_start=5.0, t_end=95.0, rng=np.random.default_rng(9)
        )
        r2 = small_index.search(
            query, 10, t_start=5.0, t_end=95.0, rng=np.random.default_rng(9)
        )
        np.testing.assert_array_equal(r1.positions, r2.positions)


class TestMemoryUsage:
    def test_breakdown_sums_to_total(self, small_index):
        usage = small_index.memory_usage()
        assert usage["total"] == usage["vectors"] + usage["graphs"]
        assert usage["graphs"] > 0

    def test_graph_bytes_grow_superlinearly_with_levels(self):
        # MBI stores each vector's neighborhood once per level: graphs of
        # the 4-leaf index cover 3 levels, the 16-leaf index 5 levels.
        small = make_index(n=64, leaf_size=16)   # 4 leaves
        large = make_index(n=256, leaf_size=16)  # 16 leaves
        per_vector_small = small.memory_usage()["graphs"] / 64
        per_vector_large = large.memory_usage()["graphs"] / 256
        assert per_vector_large > per_vector_small
