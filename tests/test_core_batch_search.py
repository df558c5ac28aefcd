"""Unit tests for the batch-query API.

The contract: ``search_batch(Q, rng=r)[i]`` equals
``search(Q[i], rng=np.random.default_rng(seed_i))`` bit for bit —
positions, distances and stats — where ``seed_i`` is the i-th of the
``len(Q)`` seeds ``search_batch`` draws from ``r`` up front.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import InvalidQueryError, MultiLevelBlockIndex, SearchParams

from .conftest import small_mbi_config

N, DIM, LEAF = 512, 8, 64

# Window per strategy it must exercise: 40 rows stay under the 64-row scan
# threshold, a wide window graph-searches built blocks, and an old window
# on the tiered index answers cold blocks from their PQ codes.
WINDOWS = {
    "scan": (100.0, 140.0, "brute"),
    "graph": (10.0, 500.0, "graph"),
    "adc": (0.0, 300.0, "adc"),
}


def _data():
    rng = np.random.default_rng(0)
    return (
        rng.standard_normal((N, DIM)).astype(np.float32),
        np.arange(N, dtype=np.float64),
    )


def _build(config) -> MultiLevelBlockIndex:
    # Built without the process-wide tiering switches so each index runs
    # exactly the configuration its case names.
    with pytest.MonkeyPatch.context() as mp:
        mp.delenv("REPRO_MEMORY_BUDGET_MB", raising=False)
        mp.delenv("REPRO_COLD_CODES", raising=False)
        idx = MultiLevelBlockIndex(DIM, "euclidean", config)
    idx.extend(*_data())
    return idx


@pytest.fixture(scope="module")
def index():
    return _build(small_mbi_config(leaf_size=LEAF))


@pytest.fixture(scope="module")
def adc_index(tmp_path_factory):
    search = SearchParams(
        epsilon=1.2,
        max_candidates=64,
        brute_force_threshold=4,
        cold_adc_threshold=4,
        cold_rerank_factor=16,
    )
    idx = _build(small_mbi_config(leaf_size=LEAF, search=search, cold_codes=True))
    idx.enable_tiering(
        memory_budget_mb=1e-4, directory=tmp_path_factory.mktemp("tiers")
    )
    return idx


def assert_identical(a, b) -> None:
    np.testing.assert_array_equal(a.positions, b.positions)
    assert a.distances.tobytes() == b.distances.tobytes()
    np.testing.assert_array_equal(a.timestamps, b.timestamps)
    assert a.stats == b.stats


def single_queries(index, queries, k, t_start, t_end, seed):
    """``search`` per query with the seeds ``search_batch`` would draw."""
    seeds = np.random.default_rng(seed).integers(0, 2**63 - 1, size=len(queries))
    return [
        index.search(
            query, k, t_start, t_end, rng=np.random.default_rng(int(qseed))
        )
        for query, qseed in zip(queries, seeds)
    ]


class TestSearchBatch:
    def test_returns_one_result_per_query(self, index):
        queries = np.random.default_rng(1).standard_normal((7, DIM))
        results = index.search_batch(queries, 5, 50.0, 400.0)
        assert len(results) == 7
        for result in results:
            assert len(result) == 5
            assert ((result.timestamps >= 50) & (result.timestamps < 400)).all()

    def test_rejects_wrong_shape(self, index):
        with pytest.raises(InvalidQueryError):
            index.search_batch(np.zeros(DIM), 5)
        with pytest.raises(InvalidQueryError):
            index.search_batch(np.zeros((3, DIM + 1)), 5)

    @pytest.mark.parametrize("case", sorted(WINDOWS))
    def test_batch_matches_single_queries(self, request, case):
        idx = request.getfixturevalue("adc_index" if case == "adc" else "index")
        t_start, t_end, strategy = WINDOWS[case]
        queries = np.random.default_rng(3).standard_normal((4, DIM))
        trace = idx.explain(
            queries[0], 3, t_start, t_end, rng=np.random.default_rng(0)
        )
        assert strategy in {event.strategy for event in trace.blocks}
        batch = idx.search_batch(
            queries, 3, t_start, t_end, rng=np.random.default_rng(11)
        )
        singles = single_queries(idx, queries, 3, t_start, t_end, 11)
        for got, want in zip(batch, singles):
            assert_identical(got, want)

    def test_unbounded_window_matches_single_queries(self, index):
        queries = np.random.default_rng(2).standard_normal((12, DIM))
        batch = index.search_batch(queries, 5, rng=np.random.default_rng(9))
        singles = single_queries(
            index, queries, 5, float("-inf"), float("inf"), 9
        )
        for got, want in zip(batch, singles):
            assert_identical(got, want)

    def test_trace_sink_does_not_change_answers(self, index):
        queries = np.random.default_rng(4).standard_normal((4, DIM))
        sink: list = []
        traced = index.search_batch(
            queries, 5, 10.0, 400.0,
            rng=np.random.default_rng(1), trace_sink=sink,
        )
        untraced = index.search_batch(
            queries, 5, 10.0, 400.0, rng=np.random.default_rng(1)
        )
        assert len(sink) == len(traced) == 4
        for a, b in zip(traced, untraced):
            assert_identical(a, b)

    def test_empty_window(self, index):
        queries = np.random.default_rng(5).standard_normal((3, DIM))
        results = index.search_batch(
            queries, 5, 4000.0, 5000.0, rng=np.random.default_rng(0)
        )
        assert len(results) == 3
        assert all(len(r) == 0 for r in results)

    def test_empty_batch(self, index):
        results = index.search_batch(np.zeros((0, DIM)), 5)
        assert results == []
