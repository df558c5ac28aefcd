"""Unit tests for the VP-tree and its block backend."""

from __future__ import annotations

import numpy as np
import pytest

from repro import MBIConfig, MultiLevelBlockIndex, SearchParams
from repro.baselines import exact_tknn
from repro.trees import (
    VPTree,
    VPTreeBackend,
    build_vptree,
    vptree_search,
)

from .conftest import small_mbi_config


def points_of(n=400, dim=6, seed=0):
    rng = np.random.default_rng(seed)
    centers = rng.standard_normal((5, dim)) * 3.0
    assignment = rng.integers(0, 5, n)
    return centers[assignment] + rng.standard_normal((n, dim))


@pytest.fixture(scope="module")
def built():
    points = points_of()
    tree, evals = build_vptree(points, np.random.default_rng(1))
    return tree, points, evals


class TestBuild:
    def test_leaves_partition_all_points(self, built):
        tree, points, _ = built
        members = []
        for node in range(tree.n_nodes):
            if tree.vantage[node] < 0:
                members.extend(
                    tree.leaf_ids[
                        tree.leaf_start[node] : tree.leaf_end[node]
                    ].tolist()
                )
            else:
                members.append(int(tree.vantage[node]))
        assert sorted(members) == list(range(len(points)))

    def test_build_counts_evaluations(self, built):
        _, _, evals = built
        assert evals > 0

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            build_vptree(np.empty((0, 3)))

    def test_single_point(self):
        tree, _ = build_vptree(np.zeros((1, 3)))
        ids, dists, _ = vptree_search(tree, np.zeros((1, 3)), np.zeros(3), 1)
        np.testing.assert_array_equal(ids, [0])

    def test_duplicate_points_terminate(self):
        points = np.ones((100, 4))
        tree, _ = build_vptree(points)
        ids, _, _ = vptree_search(tree, points, np.ones(4), 5)
        assert len(ids) == 5


class TestSearchExactness:
    def test_matches_brute_force(self, built):
        tree, points, _ = built
        rng = np.random.default_rng(2)
        for _ in range(15):
            query = rng.standard_normal(6)
            ids, dists, _ = vptree_search(tree, points, query, 10)
            true = np.sqrt(((points - query) ** 2).sum(axis=1))
            expected = np.lexsort((np.arange(len(points)), true))[:10]
            np.testing.assert_array_equal(np.sort(ids), np.sort(expected))
            np.testing.assert_allclose(dists, true[expected], rtol=1e-9)

    def test_window_filter_is_exact(self, built):
        tree, points, _ = built
        rng = np.random.default_rng(3)
        query = rng.standard_normal(6)
        ids, _, _ = vptree_search(tree, points, query, 8, allowed=range(50, 200))
        true = np.sqrt(((points[50:200] - query) ** 2).sum(axis=1))
        expected = 50 + np.lexsort((np.arange(150), true))[:8]
        np.testing.assert_array_equal(np.sort(ids), np.sort(expected))

    def test_k_larger_than_window(self, built):
        tree, points, _ = built
        ids, _, _ = vptree_search(tree, points, np.zeros(6), 50, range(10, 20))
        assert len(ids) == 10

    def test_serialization_round_trip(self, built):
        tree, points, _ = built
        clone = VPTree.from_arrays(tree.to_arrays())
        a, _, _ = vptree_search(tree, points, np.zeros(6), 5)
        b, _, _ = vptree_search(clone, points, np.zeros(6), 5)
        np.testing.assert_array_equal(a, b)


class TestCurseOfDimensionality:
    def test_pruning_works_at_low_dim_and_fails_at_high_dim(self):
        """Section 2.2's claim, measured: the fraction of points the tree
        must evaluate grows toward 1 as the dimension rises."""
        rng = np.random.default_rng(4)
        n = 800
        fractions = {}
        for dim in (2, 64):
            points = rng.standard_normal((n, dim))
            tree, _ = build_vptree(points, np.random.default_rng(5))
            total = 0
            for _ in range(10):
                query = rng.standard_normal(dim)
                _, _, evals = vptree_search(tree, points, query, 10)
                total += evals
            fractions[dim] = total / (10 * n)
        assert fractions[2] < 0.5, f"low-dim pruning failed: {fractions}"
        assert fractions[64] > 0.8, f"expected near-full scans: {fractions}"
        assert fractions[64] > 2 * fractions[2]


class TestVPTreeBackendInMBI:
    def test_exact_within_blocks(self):
        config = MBIConfig(
            leaf_size=128,
            backend="vptree",
            search=SearchParams(epsilon=1.2, brute_force_threshold=0),
        )
        index = MultiLevelBlockIndex(8, "euclidean", config)
        rng = np.random.default_rng(6)
        index.extend(
            rng.standard_normal((512, 8)).astype(np.float32),
            np.arange(512, dtype=np.float64),
        )
        for _ in range(10):
            query = rng.standard_normal(8)
            result = index.search(query, 10, 100.0, 400.0)
            truth = exact_tknn(
                index.store, index.metric, query, 10, 100.0, 400.0
            )
            np.testing.assert_array_equal(
                np.sort(result.positions), np.sort(truth.positions)
            )

    def test_angular_metric_rankings(self):
        config = MBIConfig(
            leaf_size=128,
            backend="vptree",
            search=SearchParams(brute_force_threshold=64),
        )
        index = MultiLevelBlockIndex(8, "angular", config)
        rng = np.random.default_rng(7)
        index.extend(
            rng.standard_normal((256, 8)).astype(np.float32),
            np.arange(256, dtype=np.float64),
        )
        query = rng.standard_normal(8)
        result = index.search(query, 5, 0.0, 128.0)
        assert result.stats.graph_blocks == 1
        truth = exact_tknn(index.store, index.metric, query, 5, 0.0, 128.0)
        np.testing.assert_array_equal(
            np.sort(result.positions), np.sort(truth.positions)
        )

    def test_backend_serialization(self):
        points = points_of(n=100)
        tree, _ = build_vptree(points)
        from repro.distances import resolve_metric
        from repro.storage import VectorStore

        store = VectorStore.from_arrays(
            points.astype(np.float32), np.arange(100, dtype=np.float64)
        )
        backend = VPTreeBackend(
            tree, store, range(0, 100), resolve_metric("euclidean")
        )
        clone = VPTreeBackend.from_arrays(
            backend.to_arrays(), store, range(0, 100),
            resolve_metric("euclidean"),
        )
        assert clone == backend
        assert clone.nbytes() == backend.nbytes() > 0
