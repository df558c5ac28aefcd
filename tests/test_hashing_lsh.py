"""Unit tests for hyperplane LSH and its block backend."""

from __future__ import annotations

import numpy as np
import pytest

from repro import MBIConfig, MultiLevelBlockIndex, SearchParams, load_index, save_index
from repro.core.config import LSHParams
from repro.hashing import HyperplaneLSH, LSHBackend


def unit_points(n=800, dim=24, seed=0):
    rng = np.random.default_rng(seed)
    centers = rng.standard_normal((8, dim)) * 1.5
    assignment = rng.integers(0, 8, n)
    points = centers[assignment] + rng.standard_normal((n, dim))
    return (points / np.linalg.norm(points, axis=1, keepdims=True)).astype(
        np.float32
    )


@pytest.fixture(scope="module")
def built():
    points = unit_points()
    lsh, evals = HyperplaneLSH.build(
        points, LSHParams(n_tables=8, n_bits=8), np.random.default_rng(1)
    )
    return lsh, points, evals


class TestParams:
    @pytest.mark.parametrize(
        "field, value",
        [("n_tables", 0), ("n_bits", 0), ("n_bits", 63), ("max_probe_bits", -1)],
    )
    def test_validation(self, field, value):
        with pytest.raises(ValueError):
            LSHParams(**{field: value})


class TestBuild:
    def test_shapes(self, built):
        lsh, points, evals = built
        assert lsh.n_tables == 8
        assert lsh.n_bits == 8
        assert lsh.signatures.shape == (len(points), 8)
        assert evals == len(points) * 8 * 8

    def test_buckets_cover_all_points(self, built):
        lsh, points, _ = built
        for table_buckets in lsh._buckets:
            members = np.concatenate(list(table_buckets.values()))
            assert len(members) == len(points)

    def test_signature_matches_projection_signs(self, built):
        lsh, points, _ = built
        key, margins = lsh.query_signature(points[17].astype(np.float64), 0)
        assert key == int(lsh.signatures[17, 0])
        assert (margins >= 0).all()


class TestCandidates:
    def test_self_is_always_a_candidate(self, built):
        lsh, points, _ = built
        for i in (0, 100, 700):
            candidates = lsh.candidates(points[i].astype(np.float64), 0)
            assert i in candidates

    def test_multiprobe_grows_candidate_set(self, built):
        lsh, points, _ = built
        rng = np.random.default_rng(2)
        grew = 0
        for _ in range(10):
            query = rng.standard_normal(24)
            base = len(lsh.candidates(query, 0))
            probed = len(lsh.candidates(query, 4))
            assert probed >= base
            if probed > base:
                grew += 1
        assert grew >= 7

    def test_candidates_capture_near_neighbors(self, built):
        lsh, points, _ = built
        rng = np.random.default_rng(3)
        hits = total = 0
        for _ in range(20):
            anchor = int(rng.integers(0, len(points)))
            query = points[anchor].astype(np.float64)
            sims = points @ query
            true_top = set(np.argsort(-sims)[:10].tolist())
            found = set(lsh.candidates(query, 4).tolist())
            hits += len(true_top & found)
            total += 10
        assert hits / total > 0.6


class TestSerialization:
    def test_round_trip(self, built):
        lsh, points, _ = built
        clone = HyperplaneLSH.from_arrays(lsh.to_arrays())
        query = points[3].astype(np.float64)
        np.testing.assert_array_equal(
            clone.candidates(query, 2), lsh.candidates(query, 2)
        )
        assert clone.nbytes() == lsh.nbytes()


class TestLSHBackendInMBI:
    @pytest.fixture(scope="class")
    def index(self):
        config = MBIConfig(
            leaf_size=200,
            backend="lsh",
            lsh=LSHParams(n_tables=10, n_bits=7, max_probe_bits=5),
            # Pinned so the 200-row blocks are hashed, not scanned.
            search=SearchParams(epsilon=1.3, brute_force_threshold=64),
        )
        idx = MultiLevelBlockIndex(24, "angular", config)
        points = unit_points(n=800, seed=4)
        idx.extend(points, np.arange(800, dtype=np.float64))
        return idx

    def test_windowed_recall(self, index):
        from repro.baselines import exact_tknn

        rng = np.random.default_rng(5)
        hits = graph_blocks = 0
        for _ in range(20):
            anchor = index.store.vectors[int(rng.integers(0, 800))]
            query = anchor.astype(np.float64) + 0.05 * rng.standard_normal(24)
            result = index.search(query, 10, 100.0, 700.0)
            graph_blocks += result.stats.graph_blocks
            truth = exact_tknn(
                index.store, index.metric, query, 10, 100.0, 700.0
            )
            hits += len(
                set(result.positions.tolist()) & set(truth.positions.tolist())
            )
        assert graph_blocks > 0
        assert hits / 200 > 0.7

    def test_exact_fallback_fills_results(self, index):
        # A window so small hashing may find no candidate: the fallback
        # scan must still return min(k, window) results.
        result = index.search(
            np.random.default_rng(6).standard_normal(24), 5,
            t_start=300.0, t_end=310.0,
            params=SearchParams(epsilon=1.0, brute_force_threshold=0),
        )
        assert len(result) == 5

    def test_epsilon_maps_to_probe_bits(self, index):
        backend = next(
            block.backend for block in index.iter_blocks() if block.is_built
        )
        assert isinstance(backend, LSHBackend)
        assert backend.probe_bits_for(1.0) == 0
        assert backend.probe_bits_for(1.4) == 5
        assert backend.probe_bits_for(1.2) in (2, 3)

    def test_persistence_round_trip(self, index, tmp_path):
        loaded = load_index(save_index(index, tmp_path / "lsh"))
        assert loaded.config.backend == "lsh"
        query = np.random.default_rng(7).standard_normal(24)
        a = index.search(query, 5, rng=np.random.default_rng(0))
        b = loaded.search(query, 5, rng=np.random.default_rng(0))
        np.testing.assert_array_equal(a.positions, b.positions)
