"""Tiered block storage: the "tiering never changes an answer" contract.

The headline property: for any memory budget — unbounded, tight, or a
pathological one block — TkNN answers are **bit-identical** to the
all-hot index, under torn cold files, concurrent eviction, compaction,
snapshots, and service recovery.  Everything else here (cache LRU/pinning, cold-file format, compactor
sweeps) exists to uphold that property.
"""

from __future__ import annotations

import threading

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import MultiLevelBlockIndex, SearchParams, TieringConfig
from repro.core.persistence import load_index, save_index
from repro.distances.fused import NormCache
from repro.distances.metrics import resolve_metric
from repro.exceptions import PersistenceError
from repro.faultinject import Action, get_failpoints
from repro.service import IndexService, ServiceConfig
from repro.tiering import BlockCache, Compactor
from repro.tiering.blockfile import ColdBlockStore, MemmapVectorSource

from .conftest import small_mbi_config

@pytest.fixture(autouse=True)
def _pin_cold_codes(monkeypatch):
    """This file constructs *both* ``cold_codes`` settings explicitly.

    The process-wide ``REPRO_COLD_CODES`` override (the CI tight-budget
    job arms it for the rest of tier-1) must not flip the deliberately
    pinned defaults under test here — the bit-identity and default-off
    assertions are about the exact promote-on-miss path by construction.
    """
    monkeypatch.delenv("REPRO_COLD_CODES", raising=False)


# Small leaves + a low brute-force threshold: spans above 4 walk block
# graphs, so searches exercise promotion instead of brute-forcing spans.
_SEARCH = SearchParams(epsilon=1.2, max_candidates=64, brute_force_threshold=4)

# Same shape, but with the compressed cold-tier path armed: any cold span
# above 4 vectors answers ADC-first from its code sidecar.  The generous
# rerank factor makes the shortlist cover whole leaf blocks, so the ADC
# answers are effectively exact on this workload.
_ADC_SEARCH = SearchParams(
    epsilon=1.2,
    max_candidates=64,
    brute_force_threshold=4,
    cold_adc_threshold=4,
    cold_rerank_factor=16,
)

_WINDOWS = [
    (-np.inf, np.inf),
    (0.0, 30.0),  # oldest third: guaranteed cold under a tight budget
    (35.0, 65.0),
    (80.0, 100.0),  # the hot window
]


def _build(vectors, timestamps) -> MultiLevelBlockIndex:
    config = small_mbi_config(leaf_size=100, search=_SEARCH)
    index = MultiLevelBlockIndex(vectors.shape[1], "euclidean", config)
    index.extend(vectors, timestamps)
    return index


def _answers(index, queries):
    out = []
    for qi, query in enumerate(queries):
        for t0, t1 in _WINDOWS:
            result = index.search(
                query, 10, t0, t1, rng=np.random.default_rng(qi)
            )
            out.append(
                (tuple(result.positions), tuple(map(float, result.distances)))
            )
    return out


def _cold_fraction(index) -> float:
    built = [
        b
        for b in index.iter_blocks()
        if b.backend is not None or index.tiering.is_cold(b)
    ]
    cold = [b for b in built if b.backend is None]
    return len(cold) / len(built) if built else 0.0


def _enable(index, **kwargs):
    """``enable_tiering`` whose knobs win over an ambient env budget.

    The CI tight-budget job runs this whole suite with
    ``REPRO_MEMORY_BUDGET_MB`` set, which enables tiering at index
    construction — and ``enable_tiering`` is first-config-wins, so a
    test's budget/hot-window/prefetch would silently be displaced.
    ``reconfigure`` re-pins exactly what the test asked for (the cold
    directory cannot be moved after the fact; tests that assert on the
    directory's contents stay off the env-budget path).
    """
    manager = index.enable_tiering(**kwargs)
    manager.reconfigure(
        memory_budget_mb=kwargs.get("memory_budget_mb"),
        hot_window_vectors=kwargs.get("hot_window_vectors"),
        prefetch_selected=kwargs.get("prefetch_selected", True),
    )
    return manager


class TestBitIdentity:
    """The acceptance criterion: any budget, same bits."""

    @pytest.mark.parametrize("budget_mb", [0.05, 1e-4])
    def test_answers_match_unbounded(self, clustered_data, tmp_path, budget_mb):
        vectors, timestamps, queries = clustered_data
        baseline = _build(vectors, timestamps)
        want = _answers(baseline, queries[:8])

        tiered = _build(vectors, timestamps)
        _enable(
            tiered, memory_budget_mb=budget_mb, directory=tmp_path / "tiers"
        )
        # The budget must actually bite: most blocks go cold up front.
        assert _cold_fraction(tiered) >= 0.5
        assert _answers(tiered, queries[:8]) == want

    def test_tier_counters_move(self, clustered_data, tmp_path):
        vectors, timestamps, queries = clustered_data
        tiered = _build(vectors, timestamps)
        _enable(
            tiered, memory_budget_mb=1e-4, directory=tmp_path / "tiers"
        )
        before = tiered.tiering.stats()
        _answers(tiered, queries[:4])
        stats = tiered.tiering.stats()
        assert stats["demotions"] > 0
        assert stats["promotions"] > before["promotions"]
        assert stats["cold_blocks"] > 0
        assert stats["peak_resident_bytes"] >= stats["resident_bytes"]

    def test_trace_marks_promoted_blocks(self, clustered_data, tmp_path):
        vectors, timestamps, queries = clustered_data
        tiered = _build(vectors, timestamps)
        # Prefetch off: promotion must happen on the search path itself,
        # where the per-block trace event records it.
        _enable(
            tiered,
            memory_budget_mb=1e-4,
            directory=tmp_path / "tiers",
            prefetch_selected=False,
        )
        trace = tiered.explain(
            queries[0], 10, 0.0, 30.0, rng=np.random.default_rng(0)
        )
        tiers = {event.tier for event in trace.blocks}
        assert "promoted" in tiers
        assert "[promoted]" in trace.render()

    def test_trace_marks_prefetched_blocks(self, clustered_data, tmp_path):
        # Prefetch promotes a walked cold block before the walk; the walk
        # then finds it hot, but this query is the one that promoted it.
        vectors, timestamps, queries = clustered_data
        tiered = _build(vectors, timestamps)
        _enable(
            tiered,
            memory_budget_mb=1e-4,
            directory=tmp_path / "tiers",
            prefetch_selected=True,
        )
        before = tiered.tiering.stats()["promotions"]
        trace = tiered.explain(
            queries[0], 10, 0.0, 30.0, rng=np.random.default_rng(0)
        )
        promoted = [e for e in trace.blocks if e.tier == "promoted"]
        assert promoted and all(e.strategy == "graph" for e in promoted)
        assert tiered.tiering.stats()["promotions"] - before == len(promoted)
        assert "[promoted]" in trace.render()


class TestTornFiles:
    def test_torn_idx_rebuilds_bit_identically(self, clustered_data, tmp_path):
        vectors, timestamps, queries = clustered_data
        baseline = _build(vectors, timestamps)
        want = _answers(baseline, queries[:4])

        tiered = _build(vectors, timestamps)
        manager = _enable(
            tiered, memory_budget_mb=1e-4, directory=tmp_path / "tiers"
        )
        # Tear every committed idx file mid-archive.
        for index in manager.cold_store.indices():
            path = manager.cold_store.idx_path(index)
            data = path.read_bytes()
            path.write_bytes(data[: len(data) // 2])
        rebuilds_before = manager.stats()["rebuilds"]
        assert _answers(tiered, queries[:4]) == want
        assert manager.stats()["rebuilds"] > rebuilds_before

    def test_demote_write_failure_leaves_block_hot(
        self, clustered_data, tmp_path
    ):
        vectors, timestamps, _ = clustered_data
        tiered = _build(vectors, timestamps)
        manager = _enable(
            tiered, memory_budget_mb=100.0, directory=tmp_path / "tiers"
        )
        block = next(b for b in tiered.iter_blocks() if b.backend is not None)
        with get_failpoints().scope(
            {"tier.demote_write": Action("raise", "io")}
        ):
            with pytest.raises(PersistenceError):
                manager.demote(block)
        assert block.backend is not None
        assert not manager.cold_store.has(block.index)

    def test_enforce_budget_absorbs_demotion_failures(
        self, clustered_data, tmp_path
    ):
        vectors, timestamps, _ = clustered_data
        tiered = _build(vectors, timestamps)
        manager = _enable(
            tiered, memory_budget_mb=100.0, directory=tmp_path / "tiers"
        )
        manager.cache._budget = 1  # force a full eviction plan
        with get_failpoints().scope(
            {"tier.demote_write": Action("raise", "io", times=-1)}
        ):
            demoted = manager.enforce_budget()
        assert demoted == 0
        assert all(
            b.backend is not None
            for b in tiered.iter_blocks()
            if b.capacity >= 2 and b.positions.stop <= len(tiered)
        )


class TestColdBlockStore:
    def test_memmap_source_is_bit_identical_to_the_store(
        self, clustered_data, tmp_path
    ):
        vectors, timestamps, _ = clustered_data
        tiered = _build(vectors, timestamps)
        manager = _enable(
            tiered, memory_budget_mb=1e-4, directory=tmp_path / "tiers"
        )
        index = manager.cold_store.indices()[0]
        block = tiered.blocks[index]
        _, _, _, source = manager.cold_store.read(index, block.positions)
        lo, hi = block.positions.start, block.positions.stop
        assert np.array_equal(
            np.asarray(source.slice(lo, hi)), tiered.store.slice(lo, hi)
        )
        assert source.dim == tiered.dim
        assert len(source) == hi - lo

    def test_read_rejects_mismatched_positions(
        self, clustered_data, tmp_path
    ):
        vectors, timestamps, _ = clustered_data
        tiered = _build(vectors, timestamps)
        manager = _enable(
            tiered, memory_budget_mb=1e-4, directory=tmp_path / "tiers"
        )
        index = manager.cold_store.indices()[0]
        with pytest.raises(PersistenceError):
            manager.cold_store.read(index, range(1, 7))

    def test_norm_cache_round_trips_row_data(self):
        metric = resolve_metric("euclidean")
        points = np.random.default_rng(0).standard_normal((32, 8))
        cache = NormCache(points, metric)
        clone = NormCache.from_row_data(cache.row_data, metric, 32)
        assert np.array_equal(cache.row_data, clone.row_data)
        with pytest.raises(ValueError):
            NormCache.from_row_data(cache.row_data, metric, 31)


class TestBlockCache:
    class _FakeBlock:
        def __init__(self, index):
            self.index = index

    def test_lru_eviction_plan_respects_budget(self):
        cache = BlockCache(budget_bytes=100)
        blocks = [self._FakeBlock(i) for i in range(4)]
        for b in blocks:
            cache.add(b, 50)
        cache.note_use(0)  # block 0 becomes most recent
        plan = cache.eviction_candidates()
        # 200 resident, 100 budget: the two least-recently-used go.
        assert [b.index for b in plan] == [1, 2]
        assert cache.resident_bytes == 200
        for b in plan:
            cache.remove(b.index)
        assert cache.resident_bytes == 100
        assert cache.eviction_candidates() == []

    def test_current_generation_pins_survive_eviction(self):
        cache = BlockCache(budget_bytes=10)
        blocks = [self._FakeBlock(i) for i in range(3)]
        for b in blocks:
            cache.add(b, 50)
        cache.pin([0, 2])
        assert [b.index for b in cache.eviction_candidates()] == [1]
        # The next pin releases the previous generation.
        cache.pin([1])
        assert 1 not in {b.index for b in cache.eviction_candidates()}
        assert {b.index for b in cache.eviction_candidates()} == {0, 2}

    def test_readd_updates_size_and_recency(self):
        cache = BlockCache(budget_bytes=None)
        block = self._FakeBlock(7)
        cache.add(block, 10)
        cache.add(block, 30)
        assert len(cache) == 1
        assert cache.resident_bytes == 30
        assert cache.eviction_candidates() == []  # unbounded: never evict


class TestCompactor:
    def test_sweep_demotes_out_of_window_and_merges_vec_files(
        self, clustered_data, tmp_path
    ):
        vectors, timestamps, queries = clustered_data
        baseline = _build(vectors, timestamps)
        want = _answers(baseline, queries[:4])

        tiered = _build(vectors, timestamps)
        manager = _enable(
            tiered, directory=tmp_path / "tiers", hot_window_vectors=200
        )
        compactor = Compactor(manager)
        report = compactor.run_once()
        assert report.demoted > 0
        assert report.retargeted > 0
        assert report.errors == 0
        # Merge rule: every cold idx points at a committed ancestor vec
        # whose span covers it, and orphaned vec files are gone.
        cold = manager.cold_store
        referenced = set()
        for index in cold.indices():
            meta = cold.read_meta(index)
            assert meta is not None
            ref_span = tiered.blocks[meta.vec_ref].positions
            assert ref_span.start <= meta.lo and meta.hi <= ref_span.stop
            assert cold.vec_path(meta.vec_ref).exists()
            referenced.add(meta.vec_ref)
        for index in cold.indices():
            if index not in referenced:
                assert not cold.vec_path(index).exists()
        # Everything inside the hot window stayed resident.
        start = manager.hot_window_start()
        assert all(
            b.backend is not None
            for b in tiered.iter_blocks()
            if b.positions.stop > start and b.capacity >= 2
            and b.positions.stop <= len(tiered)
        )
        # And the merged cold tier still answers bit-identically.
        assert _answers(tiered, queries[:4]) == want

    def test_run_once_is_idempotent(self, clustered_data, tmp_path):
        vectors, timestamps, _ = clustered_data
        tiered = _build(vectors, timestamps)
        manager = _enable(
            tiered, directory=tmp_path / "tiers", hot_window_vectors=200
        )
        compactor = Compactor(manager)
        compactor.run_once()
        again = compactor.run_once()
        assert again.demoted == 0
        assert again.retargeted == 0


class TestConcurrentEviction:
    def test_searches_stay_bit_identical_under_compaction_pressure(
        self, clustered_data, tmp_path
    ):
        vectors, timestamps, queries = clustered_data
        baseline = _build(vectors, timestamps)
        want = _answers(baseline, queries[:6])

        tiered = _build(vectors, timestamps)
        manager = _enable(
            tiered, memory_budget_mb=1e-4, directory=tmp_path / "tiers"
        )
        compactor = Compactor(manager)
        stop = threading.Event()
        failures: list[str] = []

        def churn():
            while not stop.is_set():
                compactor.run_once()

        def reader(worker: int):
            try:
                for _ in range(5):
                    if _answers(tiered, queries[:6]) != want:
                        failures.append(f"worker {worker}: answers diverged")
                        return
            except Exception as error:  # noqa: BLE001 - surfaced below
                failures.append(f"worker {worker}: {error!r}")

        churner = threading.Thread(target=churn)
        readers = [
            threading.Thread(target=reader, args=(w,)) for w in range(4)
        ]
        churner.start()
        for thread in readers:
            thread.start()
        for thread in readers:
            thread.join()
        stop.set()
        churner.join()
        assert failures == []


class TestPersistence:
    def test_snapshot_with_cold_blocks_is_self_contained(
        self, clustered_data, tmp_path
    ):
        vectors, timestamps, queries = clustered_data
        baseline = _build(vectors, timestamps)
        want = _answers(baseline, queries[:4])

        tiered = _build(vectors, timestamps)
        _enable(
            tiered, memory_budget_mb=1e-4, directory=tmp_path / "tiers"
        )
        assert _cold_fraction(tiered) >= 0.5
        path = save_index(tiered, tmp_path / "snap.npz")
        # Loading needs neither the tier directory nor tiering at all:
        # the snapshot streamed cold blocks' arrays from their cold files.
        loaded = load_index(path)
        assert loaded.tiering is None
        assert all(
            b.backend is not None
            for b in loaded.iter_blocks()
            if b.positions.stop <= len(loaded)
        )
        assert _answers(loaded, queries[:4]) == want

    def test_tiering_config_round_trips_through_snapshots(self, tmp_path):
        config = small_mbi_config(
            leaf_size=16,
            tiering=TieringConfig(
                enabled=False, memory_budget_mb=2.5, hot_window_vectors=64
            ),
        )
        index = MultiLevelBlockIndex(4, "euclidean", config)
        rng = np.random.default_rng(0)
        for i in range(20):
            index.insert(rng.standard_normal(4), float(i))
        loaded = load_index(save_index(index, tmp_path / "snap.npz"))
        assert loaded.config.tiering == config.tiering


class TestEnablement:
    def test_env_var_enables_tiering(self, monkeypatch, tmp_path):
        monkeypatch.setenv("REPRO_MEMORY_BUDGET_MB", "0.5")
        index = MultiLevelBlockIndex(
            4, "euclidean", small_mbi_config(leaf_size=16)
        )
        assert index.tiering is not None
        assert index.tiering.config.memory_budget_mb == 0.5

    @pytest.mark.parametrize("value", ["", "0", "-3", "not-a-number"])
    def test_env_var_garbage_is_ignored(self, monkeypatch, value):
        monkeypatch.setenv("REPRO_MEMORY_BUDGET_MB", value)
        index = MultiLevelBlockIndex(
            4, "euclidean", small_mbi_config(leaf_size=16)
        )
        assert index.tiering is None

    def test_enable_tiering_is_idempotent(self, tmp_path):
        index = MultiLevelBlockIndex(
            4, "euclidean", small_mbi_config(leaf_size=16)
        )
        first = index.enable_tiering(
            memory_budget_mb=1.0, directory=tmp_path / "tiers"
        )
        second = index.enable_tiering(memory_budget_mb=99.0)
        assert second is first
        assert first.config.memory_budget_mb == 1.0

    def test_reconfigure_retunes_budget_at_runtime(
        self, clustered_data, tmp_path
    ):
        vectors, timestamps, queries = clustered_data
        index = _build(vectors, timestamps)
        want = _answers(index, queries[:4])
        manager = _enable(index, directory=tmp_path / "tiers")
        assert manager.cache.budget_bytes is None
        assert manager.stats()["cold_blocks"] == 0

        manager.reconfigure(memory_budget_mb=1e-4)
        assert manager.config.memory_budget_mb == 1e-4
        assert manager.cache.budget_bytes == int(1e-4 * 2**20)
        # The tightened budget takes effect immediately, not at the
        # next promotion: reconfigure itself runs the eviction sweep.
        assert manager.stats()["cold_blocks"] > 0
        assert _answers(index, queries[:4]) == want

        manager.reconfigure()  # no-op: every knob left at the sentinel
        assert manager.config.memory_budget_mb == 1e-4


def _build_cold_codes(vectors, timestamps) -> MultiLevelBlockIndex:
    config = small_mbi_config(
        leaf_size=100, search=_ADC_SEARCH, cold_codes=True
    )
    index = MultiLevelBlockIndex(vectors.shape[1], "euclidean", config)
    index.extend(vectors, timestamps)
    return index


class TestColdCodes:
    """Compressed cold-tier search: sidecars, ADC scan, exact rerank."""

    def test_demotion_writes_code_sidecars(self, clustered_data, tmp_path):
        vectors, timestamps, _ = clustered_data
        tiered = _build_cold_codes(vectors, timestamps)
        manager = _enable(
            tiered, memory_budget_mb=1e-4, directory=tmp_path / "tiers"
        )
        indices = manager.cold_store.indices()
        assert indices
        assert all(manager.cold_store.has_codes(i) for i in indices)
        assert any(
            row["pq_bytes"] > 0 for row in manager.cold_store.describe()
        )

    def test_env_switch_force_enables_cold_codes(
        self, clustered_data, tmp_path, monkeypatch
    ):
        # The CI tight-budget job arms REPRO_COLD_CODES=1 to drive the
        # ADC path through all of tier-1 without touching configs.
        monkeypatch.setenv("REPRO_COLD_CODES", "1")
        vectors, timestamps, _ = clustered_data
        index = _build(vectors, timestamps)
        assert index._config.cold_codes is True
        manager = _enable(
            index, memory_budget_mb=1e-4, directory=tmp_path / "tiers"
        )
        indices = manager.cold_store.indices()
        assert indices
        assert all(manager.cold_store.has_codes(i) for i in indices)

    def test_adc_search_is_traced_and_skips_promotion(
        self, clustered_data, tmp_path
    ):
        vectors, timestamps, queries = clustered_data
        tiered = _build_cold_codes(vectors, timestamps)
        manager = _enable(
            tiered, memory_budget_mb=1e-4, directory=tmp_path / "tiers"
        )
        promotions_before = manager.stats()["promotions"]
        trace = tiered.explain(
            queries[0], 10, 0.0, 30.0, rng=np.random.default_rng(0)
        )
        adc_events = [e for e in trace.blocks if e.strategy == "adc"]
        assert adc_events
        assert all(e.tier == "cold" for e in adc_events)
        assert all(e.reason == "cold-codes" for e in adc_events)
        assert trace.summary()["adc_blocks"] == len(adc_events)
        stats = manager.stats()
        # The oldest third of the data answered without promoting a
        # single block — that is the whole point of the sidecars.
        assert stats["promotions"] == promotions_before
        assert stats["adc_searches"] >= len(adc_events)
        assert stats["adc_rerank_rows"] > 0

    def test_adc_answers_are_near_exact_with_exact_distances(
        self, clustered_data, tmp_path
    ):
        vectors, timestamps, queries = clustered_data
        baseline = _build(vectors, timestamps)
        tiered = _build_cold_codes(vectors, timestamps)
        _enable(
            tiered, memory_budget_mb=1e-4, directory=tmp_path / "tiers"
        )
        hits = total = 0
        for qi, query in enumerate(queries[:6]):
            want = baseline.search(
                query, 10, 0.0, 30.0, rng=np.random.default_rng(qi)
            )
            got = tiered.search(
                query, 10, 0.0, 30.0, rng=np.random.default_rng(qi)
            )
            hits += len(
                set(map(int, got.positions)) & set(map(int, want.positions))
            )
            total += len(want.positions)
            # ADC is a candidate filter only: every returned distance is
            # the exact metric distance to the stored vector.
            expected = tiered.metric.batch(
                query, tiered.store.vectors[got.positions]
            )
            np.testing.assert_allclose(got.distances, expected, rtol=1e-6)
            assert (np.diff(got.distances) >= 0).all()
        assert hits / total >= 0.9

    def test_torn_sidecar_falls_back_to_promote_bit_identically(
        self, clustered_data, tmp_path
    ):
        vectors, timestamps, queries = clustered_data
        baseline = _build(vectors, timestamps)
        want = _answers(baseline, queries[:4])

        tiered = _build_cold_codes(vectors, timestamps)
        with get_failpoints().scope(
            {"tier.code_write": Action("truncate", 64, times=-1)}
        ):
            manager = _enable(
                tiered, memory_budget_mb=1e-4, directory=tmp_path / "tiers"
            )
        # Every sidecar on disk is torn; the first read of each is
        # remembered, the block promotes instead, and — because demote
        # never overwrites an existing sidecar — no servable codes can
        # appear later.  Answers stay bit-identical to the untiered index.
        assert any(
            manager.cold_store.has_codes(i)
            for i in manager.cold_store.indices()
        )
        # adc_searches is a process-wide counter (session-scoped fixtures
        # elsewhere may have moved it before our snapshot) — assert the
        # *delta* across this manager's queries is zero.
        adc_before = manager.stats()["adc_searches"]
        assert _answers(tiered, queries[:4]) == want
        assert manager.stats()["adc_searches"] == adc_before
        assert manager.stats()["promotions"] > 0

    def test_code_views_count_against_the_resident_budget(
        self, clustered_data, tmp_path
    ):
        vectors, timestamps, queries = clustered_data
        tiered = _build_cold_codes(vectors, timestamps)
        manager = _enable(
            tiered, memory_budget_mb=0.05, directory=tmp_path / "tiers"
        )
        manager.enforce_budget()
        tiered.search(
            queries[0], 10, 0.0, 30.0, rng=np.random.default_rng(0)
        )
        stats = manager.stats()
        assert stats["code_views"] > 0
        assert stats["code_resident_bytes"] > 0
        assert manager.cache.code_resident_bytes == stats["code_resident_bytes"]
        # Resident accounting is the sum of block bytes and code bytes.
        assert manager.cache.resident_bytes >= stats["code_resident_bytes"]

    def test_default_off_writes_no_sidecars_and_never_scans(
        self, clustered_data, tmp_path
    ):
        vectors, timestamps, queries = clustered_data
        tiered = _build(vectors, timestamps)  # cold_codes=False (default)
        manager = _enable(
            tiered, memory_budget_mb=1e-4, directory=tmp_path / "tiers"
        )
        adc_before = manager.stats()["adc_searches"]
        _answers(tiered, queries[:4])
        assert all(
            not manager.cold_store.has_codes(i)
            for i in manager.cold_store.indices()
        )
        assert manager.stats()["adc_searches"] == adc_before
        assert manager.stats()["code_views"] == 0


@pytest.fixture(scope="module")
def adc_index(clustered_data, tmp_path_factory):
    vectors, timestamps, _ = clustered_data
    index = _build_cold_codes(vectors, timestamps)
    manager = index.enable_tiering(
        memory_budget_mb=1e-4,
        directory=tmp_path_factory.mktemp("adc-tiers"),
    )
    manager.reconfigure(memory_budget_mb=1e-4)
    return index


@st.composite
def _window_budget_splits(draw):
    a = draw(st.floats(0.0, 100.0, allow_nan=False))
    b = draw(st.floats(0.0, 100.0, allow_nan=False))
    t0, t1 = sorted((a, b))
    k = draw(st.integers(1, 15))
    qi = draw(st.integers(0, 19))
    budget_mb = draw(st.sampled_from([1e-4, 1e-3, 5e-2]))
    return t0, t1, k, qi, budget_mb


class TestColdCodesProperties:
    @given(_window_budget_splits())
    @settings(
        max_examples=30,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    def test_adc_answers_are_well_formed_under_random_splits(
        self, adc_index, clustered_data, split
    ):
        """Any window/budget split yields a sorted, deduplicated,
        correctly-sized answer whose distances are exact."""
        t0, t1, k, qi, budget_mb = split
        _, timestamps, queries = clustered_data
        adc_index.tiering.reconfigure(memory_budget_mb=budget_mb)
        query = queries[qi]
        result = adc_index.search(
            query, k, t0, t1, rng=np.random.default_rng(qi)
        )
        positions = list(map(int, result.positions))
        assert len(positions) == len(set(positions))
        in_window = int(np.count_nonzero((timestamps >= t0) & (timestamps < t1)))
        assert len(positions) == min(k, in_window)
        assert (np.diff(result.distances) >= 0).all()
        for ts in result.timestamps:
            assert t0 <= float(ts) < t1
        if positions:
            expected = adc_index.metric.batch(
                query, adc_index.store.vectors[result.positions]
            )
            np.testing.assert_allclose(result.distances, expected, rtol=1e-6)


class TestService:
    def test_memory_budget_wires_tiering_and_recovers_bit_identically(
        self, tmp_path
    ):
        dim, n = 6, 64
        mbi_config = small_mbi_config(leaf_size=8, search=_SEARCH)
        rng = np.random.default_rng(3)
        vectors = rng.standard_normal((n, dim)).astype(np.float32)

        service = IndexService.open(
            tmp_path,
            dim=dim,
            mbi_config=mbi_config,
            config=ServiceConfig(
                memory_budget_mb=1e-3, snapshot_every=16, fsync="never"
            ),
        )
        for i, vector in enumerate(vectors):
            service.ingest(vector, float(i))
        assert service.index.tiering is not None
        assert service.index.tiering.directory == tmp_path / "tiers"
        service.close(checkpoint=True)
        assert any((tmp_path / "tiers").iterdir())

        reference = MultiLevelBlockIndex(dim, "euclidean", mbi_config)
        for i, vector in enumerate(vectors):
            reference.insert(vector, float(i))

        recovered = IndexService.open(
            tmp_path,
            dim=dim,
            mbi_config=mbi_config,
            config=ServiceConfig(memory_budget_mb=1e-3, fsync="never"),
        )
        try:
            queries = rng.standard_normal((6, dim))
            for qi, query in enumerate(queries):
                got = recovered.search(
                    query, 5, rng=np.random.default_rng(qi)
                )
                want = reference.search(
                    query, 5, rng=np.random.default_rng(qi)
                )
                assert np.array_equal(got.positions, want.positions)
                assert np.array_equal(got.distances, want.distances)
        finally:
            recovered.close()
