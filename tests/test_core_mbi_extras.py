"""Additional MBI behaviors: per-query tau, time mode, backend switching."""

from __future__ import annotations

import numpy as np
import pytest

from repro import MBIConfig, MultiLevelBlockIndex, SearchParams
from repro.baselines import exact_tknn
from repro.exceptions import ConfigurationError

from .conftest import fast_graph_config, small_mbi_config


@pytest.fixture(scope="module")
def grown_index():
    index = MultiLevelBlockIndex(
        8, "euclidean", small_mbi_config(leaf_size=64)
    )
    rng = np.random.default_rng(1)
    index.extend(
        rng.standard_normal((1024, 8)).astype(np.float32),
        np.arange(1024, dtype=np.float64),
    )
    return index


class TestPerQueryTau:
    def test_tau_override_changes_block_choice(self, grown_index):
        query = np.zeros(8)
        low = grown_index.search(query, 5, 100.0, 600.0, tau=0.05)
        high = grown_index.search(query, 5, 100.0, 600.0, tau=0.95)
        assert low.stats.blocks_searched <= high.stats.blocks_searched

    def test_tau_override_does_not_stick(self, grown_index):
        query = np.zeros(8)
        grown_index.search(query, 5, 100.0, 600.0, tau=0.9)
        assert grown_index.config.tau == 0.5

    def test_results_equivalent_across_tau(self, grown_index):
        """Different tau = different block partition, same answer set
        (modulo approximation; identical here thanks to the exact builder
        and generous epsilon)."""
        query = np.random.default_rng(2).standard_normal(8)
        params = SearchParams(
            epsilon=1.4, max_candidates=256, brute_force_threshold=1024
        )
        results = {
            tau: grown_index.search(
                query, 10, 100.0, 900.0, params=params, tau=tau
            )
            for tau in (0.1, 0.5, 0.9)
        }
        reference = exact_tknn(
            grown_index.store, grown_index.metric, query, 10, 100.0, 900.0
        )
        for tau, result in results.items():
            np.testing.assert_array_equal(
                np.sort(result.positions),
                np.sort(reference.positions),
                err_msg=f"tau={tau}",
            )


class TestTimeSelectionMode:
    def test_time_mode_with_skewed_arrivals(self):
        config = MBIConfig(
            leaf_size=64,
            selection_mode="time",
            graph=fast_graph_config(),
            search=SearchParams(
                epsilon=1.3, max_candidates=64, brute_force_threshold=64
            ),
        )
        index = MultiLevelBlockIndex(8, "euclidean", config)
        rng = np.random.default_rng(3)
        # Quadratic arrivals: late vectors arrive much faster.
        timestamps = (np.arange(512) / 512.0) ** 2 * 1000.0
        index.extend(
            rng.standard_normal((512, 8)).astype(np.float32), timestamps
        )
        query = rng.standard_normal(8)
        result = index.search(query, 10, 200.0, 800.0)
        assert result.stats.graph_blocks > 0
        truth = exact_tknn(
            index.store, index.metric, query, 10, 200.0, 800.0
        )
        overlap = len(
            set(result.positions.tolist()) & set(truth.positions.tolist())
        )
        assert overlap >= 8


class TestBackendValidationAtBuildTime:
    def test_unknown_backend_fails_on_first_seal(self):
        config = MBIConfig(leaf_size=4, backend="mystery")
        index = MultiLevelBlockIndex(4, "euclidean", config)
        rng = np.random.default_rng(4)
        with pytest.raises(ConfigurationError):
            for i in range(4):
                index.insert(rng.standard_normal(4), float(i))


class TestStatsConsistency:
    def test_window_size_matches_resolution(self, grown_index):
        result = grown_index.search(np.zeros(8), 5, 100.0, 350.0)
        assert result.stats.window_size == 250

    def test_unbounded_query_covers_everything(self, grown_index):
        result = grown_index.search(np.zeros(8), 5)
        assert result.stats.window_size == 1024

    def test_graph_blocks_counted_separately(self, grown_index):
        # A window entirely inside the open-tail leaf uses no graph blocks.
        index = MultiLevelBlockIndex(
            8, "euclidean", small_mbi_config(leaf_size=64)
        )
        rng = np.random.default_rng(5)
        index.extend(
            rng.standard_normal((80, 8)).astype(np.float32),
            np.arange(80, dtype=np.float64),
        )
        result = index.search(np.zeros(8), 5, 70.0, 80.0)
        assert result.stats.graph_blocks == 0
        assert result.stats.blocks_searched == 1
