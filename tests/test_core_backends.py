"""Unit tests for the pluggable block-backend layer."""

from __future__ import annotations

import numpy as np
import pytest

from repro import (
    IVFConfig,
    MBIConfig,
    MultiLevelBlockIndex,
    SearchParams,
    load_index,
    save_index,
)
from repro.baselines import exact_tknn
from repro.core.backends import (
    GraphBackend,
    available_backends,
    get_builder,
    get_loader,
)
from repro.exceptions import ConfigurationError

from .conftest import fast_graph_config


def ivf_config(leaf_size=64):
    return MBIConfig(
        leaf_size=leaf_size,
        backend="ivf",
        ivf=IVFConfig(points_per_list=16),
        search=SearchParams(
            epsilon=1.3, max_candidates=64, brute_force_threshold=64
        ),
    )


def build_ivf_index(n=256, dim=8, leaf_size=64, seed=0):
    index = MultiLevelBlockIndex(dim, "euclidean", ivf_config(leaf_size))
    rng = np.random.default_rng(seed)
    for i in range(n):
        index.insert(rng.standard_normal(dim), float(i))
    return index


class TestRegistry:
    def test_builtin_backends_available(self):
        names = available_backends()
        assert "graph" in names
        assert "ivf" in names

    def test_unknown_backend_raises(self):
        with pytest.raises(ConfigurationError):
            get_builder("btree")
        with pytest.raises(ConfigurationError):
            get_loader("btree")


class TestMBIWithIVFBackend:
    def test_blocks_use_ivf(self):
        index = build_ivf_index()
        for block in index.iter_blocks():
            if block.is_built:
                assert block.backend.name == "ivf"
                assert block.graph is None  # graph property is graph-only

    def test_queries_work_and_respect_windows(self):
        index = build_ivf_index()
        rng = np.random.default_rng(1)
        query = rng.standard_normal(8)
        result = index.search(query, 5, t_start=50.0, t_end=150.0)
        assert len(result) == 5
        assert ((result.timestamps >= 50) & (result.timestamps < 150)).all()

    def test_high_epsilon_matches_exact(self):
        index = build_ivf_index(n=512)
        rng = np.random.default_rng(2)
        params = SearchParams(
            epsilon=1.4, max_candidates=64, brute_force_threshold=0
        )
        for _ in range(10):
            query = rng.standard_normal(8)
            result = index.search(query, 10, 100.0, 400.0, params=params)
            truth = exact_tknn(
                index.store, index.metric, query, 10, 100.0, 400.0
            )
            np.testing.assert_array_equal(
                np.sort(result.positions), np.sort(truth.positions)
            )

    def test_memory_usage_counts_ivf_structures(self):
        index = build_ivf_index()
        assert index.memory_usage()["graphs"] > 0

    def test_persistence_round_trip(self, tmp_path):
        index = build_ivf_index()
        loaded = load_index(save_index(index, tmp_path / "ivf-snap"))
        assert loaded.config.backend == "ivf"
        for i, block in index.blocks.items():
            assert loaded.blocks[i].backend == block.backend
        query = np.random.default_rng(3).standard_normal(8)
        a = index.search(query, 5, rng=np.random.default_rng(0))
        b = loaded.search(query, 5, rng=np.random.default_rng(0))
        np.testing.assert_array_equal(a.positions, b.positions)


class TestBackendEquality:
    def test_graph_backend_equality_by_arrays(self, clustered_data):
        vectors, timestamps, _ = clustered_data
        config = MBIConfig(leaf_size=200, graph=fast_graph_config())
        a = MultiLevelBlockIndex(vectors.shape[1], "euclidean", config)
        a.extend(vectors[:400], timestamps[:400])
        b = MultiLevelBlockIndex(vectors.shape[1], "euclidean", config)
        b.extend(vectors[:400], timestamps[:400])
        assert a.blocks[0].backend == b.blocks[0].backend
        assert a.blocks[0].backend != "something else"

    def test_cross_type_inequality(self):
        graph_index = MultiLevelBlockIndex(
            4, "euclidean", MBIConfig(leaf_size=8, graph=fast_graph_config())
        )
        ivf_index = MultiLevelBlockIndex(4, "euclidean", ivf_config(8))
        rng = np.random.default_rng(4)
        for i in range(8):
            v = rng.standard_normal(4)
            graph_index.insert(v, float(i))
            ivf_index.insert(v, float(i))
        assert graph_index.blocks[0].backend != ivf_index.blocks[0].backend


class TestGraphBackendStoreBinding:
    def test_backend_sees_store_growth_safely(self):
        """Sealed blocks read their slice lazily; growth must not corrupt it."""
        config = MBIConfig(leaf_size=16, graph=fast_graph_config())
        index = MultiLevelBlockIndex(4, "euclidean", config)
        rng = np.random.default_rng(5)
        first_batch = rng.standard_normal((16, 4)).astype(np.float32)
        index.extend(first_batch, np.arange(16, dtype=np.float64))
        backend = index.blocks[0].backend
        assert isinstance(backend, GraphBackend)
        before = backend._points().copy()
        # Force several store reallocations.
        for i in range(16, 5000):
            index.insert(rng.standard_normal(4), float(i))
        np.testing.assert_array_equal(backend._points(), before)
