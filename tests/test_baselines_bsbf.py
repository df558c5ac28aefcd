"""Unit tests for the BSBF baseline (Algorithm 1)."""

from __future__ import annotations

import numpy as np
import pytest

from repro import BSBFIndex, EmptyIndexError, InvalidQueryError


def make_index(n=100, dim=6, seed=0):
    index = BSBFIndex(dim)
    rng = np.random.default_rng(seed)
    index.extend(
        rng.standard_normal((n, dim)).astype(np.float32),
        np.arange(n, dtype=np.float64),
    )
    return index


class TestValidation:
    def test_empty_index_raises(self):
        with pytest.raises(EmptyIndexError):
            BSBFIndex(3).search(np.zeros(3), 1)

    def test_bad_k(self):
        index = make_index(5)
        with pytest.raises(InvalidQueryError):
            index.search(np.zeros(6), 0)

    def test_bad_dim(self):
        index = make_index(5)
        with pytest.raises(InvalidQueryError):
            index.search(np.zeros(7), 1)


class TestExactness:
    def test_unrestricted_matches_full_scan(self):
        index = make_index(200)
        rng = np.random.default_rng(1)
        for _ in range(10):
            query = rng.standard_normal(6)
            result = index.search(query, 5)
            dists = index.metric.batch(query, index.store.vectors)
            expected = np.lexsort((np.arange(200), dists))[:5]
            np.testing.assert_array_equal(result.positions, expected)

    def test_window_restriction_is_exact(self):
        index = make_index(200)
        rng = np.random.default_rng(2)
        query = rng.standard_normal(6)
        result = index.search(query, 5, t_start=50.0, t_end=100.0)
        assert ((result.positions >= 50) & (result.positions < 100)).all()
        dists = index.metric.batch(query, index.store.vectors[50:100])
        expected = 50 + np.lexsort((np.arange(50), dists))[:5]
        np.testing.assert_array_equal(result.positions, expected)

    def test_window_smaller_than_k(self):
        index = make_index(50)
        result = index.search(np.zeros(6), 20, t_start=10.0, t_end=15.0)
        assert len(result) == 5

    def test_empty_window(self):
        index = make_index(50)
        result = index.search(np.zeros(6), 5, t_start=200.0, t_end=300.0)
        assert len(result) == 0

    def test_stats_count_window_scan(self):
        index = make_index(100)
        result = index.search(np.zeros(6), 5, t_start=20.0, t_end=60.0)
        assert result.stats.distance_evaluations == 40
        assert result.stats.window_size == 40


class TestMemory:
    def test_memory_is_vectors_only(self):
        index = make_index(100)
        usage = index.memory_usage()
        assert usage["graphs"] == 0
        assert usage["total"] == usage["vectors"] > 0


class TestSearchBatch:
    def test_batch_matches_single_queries(self):
        index = make_index(200)
        queries = np.random.default_rng(3).standard_normal((5, 6))
        batch = index.search_batch(queries, 4, 20.0, 150.0)
        assert len(batch) == 5
        for got, query in zip(batch, queries):
            want = index.search(query, 4, 20.0, 150.0)
            np.testing.assert_array_equal(got.positions, want.positions)
            assert got.distances.tobytes() == want.distances.tobytes()
            assert got.stats == want.stats

    def test_rejects_wrong_shape(self):
        with pytest.raises(InvalidQueryError):
            make_index(10).search_batch(np.zeros(6), 1)
