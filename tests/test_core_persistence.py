"""Unit tests for index snapshots (save/load)."""

from __future__ import annotations

from pathlib import Path

import numpy as np
import pytest

from repro import (
    GraphConfig,
    MBIConfig,
    MultiLevelBlockIndex,
    PersistenceError,
    SearchParams,
    load_index,
    save_index,
)
from repro.graph import NNDescentParams

from .conftest import small_mbi_config

# Written by the library before it had a block planner, and while it still
# had a query thread pool.
LEGACY_SNAPSHOT = Path(__file__).parent / "data" / "legacy_query_pool_snapshot.npz"


@pytest.fixture(autouse=True)
def _pin_cold_codes(monkeypatch):
    """Round-trip tests compare snapshots against literal configs; the
    process-wide ``REPRO_COLD_CODES`` override (CI tight-budget job)
    would flip ``cold_codes`` between construction and comparison."""
    monkeypatch.delenv("REPRO_COLD_CODES", raising=False)


def build_index(n=80, dim=8, leaf_size=16):
    index = MultiLevelBlockIndex(
        dim, "angular", small_mbi_config(leaf_size=leaf_size)
    )
    rng = np.random.default_rng(0)
    for i in range(n):
        index.insert(rng.standard_normal(dim), float(i))
    return index


class TestRoundTrip:
    def test_blocks_and_data_survive(self, tmp_path):
        index = build_index()
        path = save_index(index, tmp_path / "snap")
        assert path.suffix == ".npz"
        loaded = load_index(path)
        assert len(loaded) == len(index)
        assert loaded.dim == index.dim
        assert loaded.metric.name == "angular"
        assert set(loaded.blocks) == set(index.blocks)
        for i, block in index.blocks.items():
            assert loaded.blocks[i].positions == block.positions
            assert loaded.blocks[i].height == block.height
            assert loaded.blocks[i].graph == block.graph

    def test_queries_identical_after_reload(self, tmp_path):
        index = build_index()
        path = save_index(index, tmp_path / "snap.npz")
        loaded = load_index(path)
        rng_a, rng_b = np.random.default_rng(7), np.random.default_rng(7)
        query = np.random.default_rng(1).standard_normal(8)
        original = index.search(query, 5, 10.0, 70.0, rng=rng_a)
        reloaded = loaded.search(query, 5, 10.0, 70.0, rng=rng_b)
        np.testing.assert_array_equal(original.positions, reloaded.positions)
        np.testing.assert_allclose(original.distances, reloaded.distances)

    def test_inserts_continue_after_reload(self, tmp_path):
        index = build_index(n=20, leaf_size=16)  # open leaf has 4 slots used
        path = save_index(index, tmp_path / "snap")
        loaded = load_index(path)
        rng = np.random.default_rng(2)
        for i in range(20, 40):
            loaded.insert(rng.standard_normal(8), float(i))
        assert len(loaded) == 40
        # The merge that seals leaves 1 and 2 must have happened.
        built = [b for b in loaded.iter_blocks() if b.is_built]
        assert len(built) >= 3

    def test_config_round_trips(self, tmp_path):
        config = MBIConfig(
            leaf_size=24,
            tau=0.35,
            selection_mode="time",
            graph=GraphConfig(
                n_neighbors=6,
                max_degree=14,
                exact_threshold=5000,
                prune_alpha=1.1,
                random_long_edges=2,
                nndescent=NNDescentParams(n_neighbors=6, max_iters=5),
            ),
            search=SearchParams(epsilon=1.18, max_candidates=40),
            parallel=True,
            max_workers=2,
            seed=99,
        )
        index = MultiLevelBlockIndex(4, "euclidean", config)
        index.insert(np.zeros(4), 0.0)
        path = save_index(index, tmp_path / "cfg")
        loaded = load_index(path)
        assert loaded.config == config

    def test_empty_index_round_trips(self, tmp_path):
        index = MultiLevelBlockIndex(4, "euclidean", small_mbi_config())
        path = save_index(index, tmp_path / "empty")
        loaded = load_index(path)
        assert len(loaded) == 0

    def test_snapshot_with_query_pool_keys_loads(self):
        # Written by the library while it still had a query thread pool:
        # the header's config carries that pool's three knobs, set to
        # non-default values.  Loading ignores them.
        loaded = load_index(LEGACY_SNAPSHOT)
        # The snapshot predates the block planner, so its 64-row scan rule
        # stays pinned (see test_legacy_snapshot_keeps_its_scan_threshold).
        search = SearchParams(epsilon=1.2, max_candidates=64, brute_force_threshold=64)
        assert loaded.config == small_mbi_config(leaf_size=16, seed=5, search=search)
        assert len(loaded) == 72
        twin = MultiLevelBlockIndex(4, "euclidean", loaded.config)
        twin.extend(loaded.store.vectors, loaded.store.timestamps)
        query = np.random.default_rng(1).standard_normal(4)
        want = twin.search(query, 5, 3.0, 60.0, rng=np.random.default_rng(3))
        got = loaded.search(query, 5, 3.0, 60.0, rng=np.random.default_rng(3))
        np.testing.assert_array_equal(got.positions, want.positions)
        assert got.distances.tobytes() == want.distances.tobytes()

    def test_legacy_snapshot_keeps_its_scan_threshold(self):
        # Snapshots written before the block planner carry the old default
        # threshold (64) as a plain int: it loads pinned, so the index keeps
        # answering with the fixed rule it answered with when saved.
        loaded = load_index(LEGACY_SNAPSHOT)
        assert loaded.config.search.brute_force_threshold == 64
        query = np.random.default_rng(1).standard_normal(4)
        trace = loaded.explain(query, 5, 3.0, 60.0, rng=np.random.default_rng(3))
        assert trace.brute_force_threshold == 64
        assert {e.reason for e in trace.blocks} <= {"short-window", "open-leaf"}

    def test_new_snapshot_stores_planner_default_as_null(self, tmp_path):
        import json

        index = build_index()
        assert index.config.search.brute_force_threshold is None
        path = save_index(index, tmp_path / "planner")
        with np.load(path) as archive:
            header = json.loads(bytes(archive["header"]).decode())
        assert header["config"]["search"]["brute_force_threshold"] is None
        assert load_index(path).config.search.brute_force_threshold is None

    def test_build_counters_restored(self, tmp_path):
        index = build_index()
        loaded = load_index(save_index(index, tmp_path / "counters"))
        assert loaded.total_distance_evaluations == sum(
            b.distance_evaluations for b in index.iter_blocks()
        )


class TestErrors:
    def test_missing_file(self, tmp_path):
        with pytest.raises(PersistenceError):
            load_index(tmp_path / "nope.npz")

    def test_corrupt_file(self, tmp_path):
        path = tmp_path / "garbage.npz"
        path.write_bytes(b"this is not a snapshot")
        with pytest.raises(PersistenceError):
            load_index(path)

    def test_wrong_format_version(self, tmp_path):
        import json

        index = build_index(n=5)
        path = save_index(index, tmp_path / "versioned")
        with np.load(path) as archive:
            arrays = {name: archive[name] for name in archive.files}
        header = json.loads(bytes(arrays["header"]).decode())
        header["format_version"] = 999
        arrays["header"] = np.frombuffer(
            json.dumps(header).encode(), dtype=np.uint8
        )
        with open(path, "wb") as handle:
            np.savez_compressed(handle, **arrays)
        with pytest.raises(PersistenceError):
            load_index(path)

    def test_future_format_version_message_names_version_and_path(
        self, tmp_path
    ):
        """ISSUE 2 satellite: future snapshots fail clearly, not cryptically.

        A snapshot written by a *newer* library version must be rejected
        before any reconstruction is attempted, with an error that names
        both the offending version and the file, and tells the user the
        fix (upgrade), rather than failing deep inside array parsing.
        """
        import json

        index = build_index(n=5)
        path = save_index(index, tmp_path / "future")
        with np.load(path) as archive:
            arrays = {name: archive[name] for name in archive.files}
        header = json.loads(bytes(arrays["header"]).decode())
        future_version = header["format_version"] + 7
        header["format_version"] = future_version
        arrays["header"] = np.frombuffer(
            json.dumps(header).encode(), dtype=np.uint8
        )
        with open(path, "wb") as handle:
            np.savez_compressed(handle, **arrays)
        with pytest.raises(PersistenceError) as excinfo:
            load_index(path)
        message = str(excinfo.value)
        assert str(future_version) in message
        assert str(path) in message
        assert "newer" in message
        assert "upgrade" in message
