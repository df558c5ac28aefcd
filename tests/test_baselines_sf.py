"""Unit tests for the SF baseline (global graph + filtering)."""

from __future__ import annotations

import numpy as np
import pytest

from repro import EmptyIndexError, InvalidQueryError, SFIndex, SearchParams
from repro.baselines import exact_tknn
from repro.graph import GraphConfig


def make_index(n=400, dim=8, seed=0, build=True):
    index = SFIndex(
        dim,
        "euclidean",
        graph_config=GraphConfig(n_neighbors=8, exact_threshold=100_000),
        search_params=SearchParams(epsilon=1.25, max_candidates=64),
    )
    rng = np.random.default_rng(seed)
    centers = rng.standard_normal((5, dim)) * 1.5
    assignment = rng.integers(0, 5, n)
    vectors = (centers[assignment] + rng.standard_normal((n, dim))).astype(
        np.float32
    )
    index.extend(vectors, np.arange(n, dtype=np.float64))
    if build:
        index.build()
    return index


class TestLifecycle:
    def test_search_before_build_raises(self):
        index = make_index(build=False)
        with pytest.raises(EmptyIndexError):
            index.search(np.zeros(8), 1)

    def test_empty_index_raises(self):
        index = SFIndex(4)
        with pytest.raises(EmptyIndexError):
            index.search(np.zeros(4), 1)
        with pytest.raises(EmptyIndexError):
            index.build()

    def test_staleness_tracking(self):
        index = make_index(n=50)
        assert not index.is_stale
        index.insert(np.zeros(8), 1000.0)
        assert index.is_stale
        index.build()
        assert not index.is_stale

    def test_build_counters(self):
        index = make_index(n=50)
        assert index.total_build_seconds > 0
        assert index.total_distance_evaluations > 0


class TestValidation:
    def test_bad_k(self):
        index = make_index(50)
        with pytest.raises(InvalidQueryError):
            index.search(np.zeros(8), -1)

    def test_bad_dim(self):
        index = make_index(50)
        with pytest.raises(InvalidQueryError):
            index.search(np.zeros(3), 1)


class TestSearch:
    def test_unrestricted_high_recall(self):
        index = make_index(n=600)
        rng = np.random.default_rng(3)
        hits = total = 0
        for _ in range(20):
            query = rng.standard_normal(8)
            result = index.search(query, 10)
            truth = exact_tknn(index.store, index.metric, query, 10)
            hits += len(
                set(result.positions.tolist()) & set(truth.positions.tolist())
            )
            total += 10
        assert hits / total > 0.9

    def test_window_restriction_respected(self):
        index = make_index(n=400)
        result = index.search(np.zeros(8), 10, t_start=100.0, t_end=200.0)
        assert ((result.positions >= 100) & (result.positions < 200)).all()

    def test_short_window_costs_more_than_long(self):
        index = make_index(n=600)
        rng = np.random.default_rng(4)
        query = rng.standard_normal(8)
        # Disable the small-window brute-force shortcut to observe the raw
        # Algorithm 2 behavior the paper describes in Section 3.2.2.
        params = SearchParams(
            epsilon=1.25, max_candidates=64, brute_force_threshold=0
        )
        long = index.search(query, 10, t_start=0.0, t_end=600.0, params=params)
        short = index.search(
            query, 10, t_start=290.0, t_end=320.0, params=params
        )
        assert (
            short.stats.nodes_visited > long.stats.nodes_visited
        ), "SF should work harder on short windows"

    def test_tiny_window_uses_exact_scan(self):
        index = make_index(n=600)
        result = index.search(np.zeros(8), 5, t_start=100.0, t_end=110.0)
        assert result.stats.nodes_visited == 0
        assert result.stats.distance_evaluations == 10
        assert len(result) == 5

    def test_default_params_keep_the_64_row_scan_rule(self):
        # SF has no block planner: with ``brute_force_threshold=None`` it
        # scans windows of at most 64 rows, as when 64 was the default.
        index = make_index(n=600)
        query = np.random.default_rng(4).standard_normal(8)
        pinned = SearchParams(brute_force_threshold=64)
        windows = {(100.0, 150.0): False, (50.0, 550.0): True}
        for (t_start, t_end), walks in windows.items():
            got = index.search(
                query, 10, t_start, t_end, params=SearchParams(),
                rng=np.random.default_rng(1),
            )
            want = index.search(
                query, 10, t_start, t_end, params=pinned,
                rng=np.random.default_rng(1),
            )
            np.testing.assert_array_equal(got.positions, want.positions)
            assert got.distances.tobytes() == want.distances.tobytes()
            assert got.stats == want.stats
            assert (got.stats.graph_blocks == 1) == walks

    def test_stale_tail_not_searched(self):
        index = make_index(n=100)
        index.insert(np.zeros(8), 1000.0)  # not in the graph
        result = index.search(np.zeros(8), 5, t_start=999.0, t_end=1001.0)
        assert len(result) == 0

    def test_empty_window(self):
        index = make_index(n=100)
        result = index.search(np.zeros(8), 5, t_start=5000.0, t_end=6000.0)
        assert len(result) == 0

    def test_memory_includes_graph(self):
        index = make_index(n=100)
        usage = index.memory_usage()
        assert usage["graphs"] > 0
        assert usage["total"] == usage["vectors"] + usage["graphs"]


class TestSearchBatch:
    def test_batch_matches_single_queries(self):
        index = make_index()
        queries = np.random.default_rng(2).standard_normal((6, 8))
        batch = index.search_batch(
            queries, 5, 10.0, 350.0, rng=np.random.default_rng(2)
        )
        seeds = np.random.default_rng(2).integers(0, 2**63 - 1, size=6)
        for got, query, seed in zip(batch, queries, seeds):
            want = index.search(
                query, 5, 10.0, 350.0, rng=np.random.default_rng(int(seed))
            )
            np.testing.assert_array_equal(got.positions, want.positions)
            assert got.distances.tobytes() == want.distances.tobytes()
            assert got.stats == want.stats
