"""Unit tests for the HNSW structure and its block backend."""

from __future__ import annotations

import numpy as np
import pytest

from repro import MBIConfig, MultiLevelBlockIndex, SearchParams, load_index, save_index
from repro.baselines import exact_tknn
from repro.distances import resolve_metric
from repro.graph import HNSWParams, build_hnsw
from repro.graph.hnsw import deserialize_hnsw, serialize_hnsw

METRIC = resolve_metric("euclidean")


def clustered(n=600, dim=12, seed=0):
    rng = np.random.default_rng(seed)
    centers = rng.standard_normal((6, dim)) * 2.0
    assignment = rng.integers(0, 6, n)
    return (centers[assignment] + rng.standard_normal((n, dim))).astype(
        np.float32
    )


@pytest.fixture(scope="module")
def built():
    points = clustered()
    index, evals = build_hnsw(
        points, METRIC, HNSWParams(m=8, ef_construction=48),
        np.random.default_rng(1),
    )
    return index, points, evals


class TestParams:
    def test_rejects_bad_m(self):
        with pytest.raises(ValueError):
            HNSWParams(m=1)

    def test_rejects_bad_ef(self):
        with pytest.raises(ValueError):
            HNSWParams(ef_construction=0)


class TestStructure:
    def test_layer_zero_covers_all_nodes(self, built):
        index, points, _ = built
        assert index.base_graph.num_nodes == len(points)
        # Every node (except possibly isolated early ones) has neighbors.
        degrees = [index.base_graph.degree(i) for i in range(len(points))]
        assert np.mean(degrees) > 2

    def test_levels_are_geometric(self, built):
        index, points, _ = built
        layer0 = np.count_nonzero(index.levels >= 0)
        layer1 = np.count_nonzero(index.levels >= 1)
        assert layer0 == len(points)
        assert 0 < layer1 < layer0 / 2

    def test_entry_point_is_on_top_layer(self, built):
        index, _, _ = built
        assert index.levels[index.entry_point] == index.levels.max()

    def test_degree_caps_respected(self, built):
        index, _, _ = built
        params_m = 8
        assert index.base_graph.max_degree <= 2 * params_m
        for layer in index.upper_layers:
            for neighbors in layer.values():
                assert len(neighbors) <= params_m

    def test_build_counts_evaluations(self, built):
        _, _, evals = built
        assert evals > 0

    def test_flat_mode_single_layer(self):
        points = clustered(n=100)
        index, _ = build_hnsw(
            points, METRIC, HNSWParams(m=6, seed_levels=False),
            np.random.default_rng(2),
        )
        assert index.max_level == 0
        assert (index.levels == 0).all()


class TestDescent:
    def test_descent_lands_near_query(self, built):
        index, points, _ = built
        rng = np.random.default_rng(3)
        better_than_random = 0
        for _ in range(20):
            query = points[rng.integers(0, len(points))].astype(np.float64)
            node, evals = index.descend(query, points, METRIC)
            assert evals >= 1
            d_descent = METRIC.pairwise(query, points[node])
            d_random = METRIC.pairwise(
                query, points[rng.integers(0, len(points))]
            )
            if d_descent <= d_random:
                better_than_random += 1
        assert better_than_random >= 14


class TestSerialization:
    def test_round_trip(self, built):
        index, _, _ = built
        arrays = serialize_hnsw(index)
        clone = deserialize_hnsw(arrays)
        assert clone.entry_point == index.entry_point
        assert clone.max_level == index.max_level
        assert clone.base_graph == index.base_graph
        for a, b in zip(clone.upper_layers, index.upper_layers):
            assert a.keys() == b.keys()
            for node in a:
                np.testing.assert_array_equal(a[node], b[node])

    def test_nbytes_positive(self, built):
        index, _, _ = built
        assert index.nbytes() > 0


class TestHNSWBackendInMBI:
    @pytest.fixture(scope="class")
    def index(self):
        config = MBIConfig(
            leaf_size=200,
            backend="hnsw",
            hnsw=HNSWParams(m=8, ef_construction=48),
            # Pinned so the 200-row blocks are walked, not scanned.
            search=SearchParams(
                epsilon=1.3, max_candidates=64, brute_force_threshold=64
            ),
        )
        idx = MultiLevelBlockIndex(12, "euclidean", config)
        points = clustered(n=800, seed=4)
        idx.extend(points, np.arange(800, dtype=np.float64))
        return idx

    def test_blocks_are_hnsw(self, index):
        for block in index.iter_blocks():
            if block.is_built:
                assert block.backend.name == "hnsw"

    def test_windowed_recall(self, index):
        rng = np.random.default_rng(5)
        hits = graph_blocks = 0
        for _ in range(20):
            query = rng.standard_normal(12)
            result = index.search(query, 10, 100.0, 700.0)
            graph_blocks += result.stats.graph_blocks
            truth = exact_tknn(
                index.store, index.metric, query, 10, 100.0, 700.0
            )
            hits += len(
                set(result.positions.tolist()) & set(truth.positions.tolist())
            )
        assert graph_blocks > 0
        assert hits / 200 > 0.85

    def test_persistence_round_trip(self, index, tmp_path):
        loaded = load_index(save_index(index, tmp_path / "hnsw"))
        assert loaded.config.backend == "hnsw"
        query = np.random.default_rng(6).standard_normal(12)
        a = index.search(query, 5, rng=np.random.default_rng(0))
        b = loaded.search(query, 5, rng=np.random.default_rng(0))
        np.testing.assert_array_equal(a.positions, b.positions)
