"""Unit tests for the IVF-PQ (IVFADC) block backend."""

from __future__ import annotations

import numpy as np
import pytest

from repro import MBIConfig, MultiLevelBlockIndex, SearchParams, load_index, save_index
from repro.baselines import exact_tknn
from repro.core.backends import get_builder
from repro.core.config import IVFPQConfig
from repro.distances import resolve_metric
from repro.quantization import IVFPQBackend
from repro.storage import VectorStore


def make_backend(n=600, dim=16, metric_name="euclidean", seed=0):
    rng = np.random.default_rng(seed)
    centers = rng.standard_normal((8, dim)) * 2.5
    assignment = rng.integers(0, 8, n)
    vectors = (centers[assignment] + rng.standard_normal((n, dim))).astype(
        np.float32
    )
    store = VectorStore.from_arrays(vectors, np.arange(n, dtype=np.float64))
    metric = resolve_metric(metric_name)
    config = MBIConfig(
        backend="ivfpq",
        ivfpq=IVFPQConfig(
            points_per_list=40,
            pq_subspaces=4,
            pq_centroids=32,
            rerank_factor=4,
        ),
    )
    builder = get_builder("ivfpq")
    backend, evals = builder(
        store, range(0, n), metric, config, np.random.default_rng(1)
    )
    return backend, store, metric, evals


class TestConfig:
    @pytest.mark.parametrize(
        "field, value",
        [
            ("points_per_list", 0),
            ("pq_subspaces", 0),
            ("pq_centroids", 1),
            ("pq_centroids", 300),
            ("pq_iters", 0),
            ("rerank_factor", 0),
            ("kmeans_iters", 0),
        ],
    )
    def test_validation(self, field, value):
        with pytest.raises(ValueError):
            IVFPQConfig(**{field: value})


class TestBuild:
    def test_structure(self):
        backend, _, _, evals = make_backend()
        assert isinstance(backend, IVFPQBackend)
        assert backend.n_lists == 15
        assert backend.codes.shape == (600, 4)
        assert evals > 0
        np.testing.assert_array_equal(
            np.sort(backend.member_ids), np.arange(600)
        )

    def test_compression_versus_flat_ivf(self):
        backend, store, _, _ = make_backend()
        raw_bytes = store.nbytes()
        # codes are 4 bytes/vector vs 64 bytes/vector of float32 raw data.
        assert backend.codes.nbytes < raw_bytes / 10


class TestSearch:
    def test_results_respect_window(self):
        backend, _, _, _ = make_backend()
        outcome = backend.search(
            np.zeros(16), 15, range(100, 300),
            SearchParams(epsilon=1.2), np.random.default_rng(2),
        )
        assert ((outcome.ids >= 100) & (outcome.ids < 300)).all()

    def test_full_probe_with_generous_rerank_is_near_exact(self):
        rng = np.random.default_rng(3)
        backend, store, metric, _ = make_backend()
        params = SearchParams(epsilon=1.4)
        hits = 0
        for qi in range(20):
            query = store.vectors[rng.integers(0, 600)].astype(
                np.float64
            ) + 0.05 * rng.standard_normal(16)
            outcome = backend.search(
                query, 10, range(0, 600), params, np.random.default_rng(qi)
            )
            dists = metric.batch(query, store.vectors.astype(np.float64))
            exact = set(np.argsort(dists)[:10].tolist())
            hits += len(set(outcome.ids.tolist()) & exact)
        assert hits / 200 > 0.9

    def test_returned_distances_are_exact(self):
        backend, store, metric, _ = make_backend()
        query = np.random.default_rng(4).standard_normal(16)
        outcome = backend.search(
            query, 5, range(0, 600), SearchParams(epsilon=1.2),
            np.random.default_rng(5),
        )
        for local_id, dist in zip(outcome.ids, outcome.dists):
            expected = metric.pairwise(
                query, store.vectors[local_id].astype(np.float64)
            )
            assert dist == pytest.approx(expected, rel=1e-5)

    def test_empty_window(self):
        backend, _, _, _ = make_backend()
        outcome = backend.search(
            np.zeros(16), 5, range(5, 5), SearchParams(),
            np.random.default_rng(6),
        )
        assert len(outcome.ids) == 0

    def test_angular_metric_supported(self):
        backend, store, metric, _ = make_backend(metric_name="angular")
        rng = np.random.default_rng(7)
        query = rng.standard_normal(16)
        outcome = backend.search(
            query, 10, range(0, 600), SearchParams(epsilon=1.4),
            np.random.default_rng(8),
        )
        assert len(outcome.ids) == 10
        assert (np.diff(outcome.dists) >= -1e-9).all()


class TestKernelParity:
    def test_backend_scores_match_legacy_scorer_bitwise(self):
        # The backend now scores candidates through the shared
        # flat-gather ADC kernel; its tables and scores must stay
        # bit-identical to the legacy per-row scorer it replaced.
        from repro.quantization import adc_scan

        backend, store, metric, _ = make_backend()
        rng = np.random.default_rng(11)
        candidates = np.arange(len(backend.codes), dtype=np.int32)
        for _ in range(5):
            query = rng.standard_normal(16)
            table = backend.quantizer.adc_table(query)
            fast = adc_scan(
                table, backend.codes[candidates], backend._adc_offsets
            )
            legacy = backend.quantizer.adc_distances(
                table, backend.codes[candidates]
            )
            np.testing.assert_array_equal(fast, legacy)
            # Identical scores force identical candidate order.
            np.testing.assert_array_equal(
                np.argsort(fast, kind="stable"),
                np.argsort(legacy, kind="stable"),
            )


class TestSerializationAndMBI:
    def test_backend_round_trip(self):
        backend, store, metric, _ = make_backend()
        clone = IVFPQBackend.from_arrays(
            backend.to_arrays(), store, range(0, 600), metric
        )
        assert clone == backend
        assert clone.rerank_factor == backend.rerank_factor

    def test_mbi_end_to_end_with_persistence(self, tmp_path):
        config = MBIConfig(
            leaf_size=128,
            backend="ivfpq",
            ivfpq=IVFPQConfig(
                points_per_list=16, pq_subspaces=4, pq_centroids=16
            ),
            search=SearchParams(epsilon=1.3, brute_force_threshold=64),
        )
        index = MultiLevelBlockIndex(16, "euclidean", config)
        rng = np.random.default_rng(9)
        index.extend(
            rng.standard_normal((512, 16)).astype(np.float32),
            np.arange(512, dtype=np.float64),
        )
        result = index.search(rng.standard_normal(16), 5, 100.0, 400.0)
        assert len(result) == 5
        assert result.stats.graph_blocks > 0

        loaded = load_index(save_index(index, tmp_path / "ivfpq"))
        assert loaded.config.backend == "ivfpq"
        query = rng.standard_normal(16)
        a = index.search(query, 5, rng=np.random.default_rng(0))
        b = loaded.search(query, 5, rng=np.random.default_rng(0))
        np.testing.assert_array_equal(a.positions, b.positions)

    def test_recall_against_exact_in_mbi(self):
        config = MBIConfig(
            leaf_size=256,
            backend="ivfpq",
            ivfpq=IVFPQConfig(
                points_per_list=32,
                pq_subspaces=8,
                pq_centroids=32,
                rerank_factor=8,
            ),
            search=SearchParams(epsilon=1.4, brute_force_threshold=0),
        )
        index = MultiLevelBlockIndex(16, "euclidean", config)
        rng = np.random.default_rng(10)
        centers = rng.standard_normal((6, 16)) * 2.0
        vectors = (
            centers[rng.integers(0, 6, 1024)]
            + rng.standard_normal((1024, 16))
        ).astype(np.float32)
        index.extend(vectors, np.arange(1024, dtype=np.float64))
        hits = 0
        for _ in range(20):
            query = rng.standard_normal(16)
            result = index.search(query, 10, 100.0, 900.0)
            truth = exact_tknn(
                index.store, index.metric, query, 10, 100.0, 900.0
            )
            hits += len(
                set(result.positions.tolist()) & set(truth.positions.tolist())
            )
        assert hits / 200 > 0.85
