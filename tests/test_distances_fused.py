"""Dtype, contiguity, and accounting tests for the fused kernel layer.

The fused kernels (``repro.distances.fused``) are the floor every hot
search path stands on, so this module pins down their numeric contract:

* output dtype is always ``RANK_DTYPE`` (float64), regardless of the
  storage dtype;
* float32 and non-contiguous inputs agree with a float64 reference
  computed through the plain ``metric.batch`` kernels;
* ``finalize`` recovers true metric distances from rank space;
* every ranked row is charged to the owning cache's ``evaluations``
  counter (the kernel half of the distance-counting convention);
* a row's scan distance does not depend on the range it is scanned in.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.distances.fused import (
    RANK_DTYPE,
    FusedQuery,
    NormCache,
    StoreNormCache,
    as_fused_points,
    row_norms,
    row_sq_norms,
)
from repro.distances.metrics import Metric, resolve_metric
from repro.storage.vector_store import VectorStore

METRICS = ["euclidean", "sqeuclidean", "angular", "ip"]


def _generic_metric() -> Metric:
    """An unregistered metric that must hit the generic fallback path."""

    def batch(query, rows):
        rows = np.asarray(rows, dtype=np.float64)
        query = np.asarray(query, dtype=np.float64)
        return np.abs(rows - query).sum(axis=1)

    return Metric(
        name="manhattan-test",
        pairwise=lambda a, b: float(np.abs(np.subtract(a, b)).sum()),
        batch=batch,
        cross=lambda qs, rows: np.stack([batch(q, rows) for q in qs]),
    )


def _dataset(seed: int = 0, n: int = 64, dim: int = 8) -> np.ndarray:
    rng = np.random.default_rng(seed)
    return rng.standard_normal((n, dim))


class TestAsFusedPoints:
    def test_contiguous_float32_passes_through(self):
        points = np.ascontiguousarray(_dataset().astype(np.float32))
        assert as_fused_points(points) is points

    def test_float64_keeps_dtype(self):
        points = _dataset()
        out = as_fused_points(points)
        assert out.dtype == np.float64

    def test_integer_input_converts_to_float32(self):
        out = as_fused_points(np.arange(12, dtype=np.int64).reshape(3, 4))
        assert out.dtype == np.float32

    def test_non_contiguous_input_becomes_contiguous(self):
        base = _dataset(n=32, dim=16).astype(np.float32)
        view = base[::2, ::2]
        assert not view.flags["C_CONTIGUOUS"]
        out = as_fused_points(view)
        assert out.flags["C_CONTIGUOUS"]
        np.testing.assert_array_equal(out, view)


class TestRowNorms:
    def test_sq_norms_accumulate_in_float64(self):
        points = _dataset().astype(np.float32)
        norms = row_sq_norms(points)
        assert norms.dtype == np.float64
        reference = (points.astype(np.float64) ** 2).sum(axis=1)
        np.testing.assert_allclose(norms, reference, rtol=1e-6)

    def test_zero_row_norm_replaced_by_one(self):
        points = np.zeros((3, 4), dtype=np.float32)
        np.testing.assert_array_equal(row_norms(points), np.ones(3))


class TestRangeDots:
    """A row's scan distance is the same whatever range it is scanned in:
    the direct formula rounds each row on its own."""

    @staticmethod
    def _distances(store, q, lo, hi):
        cache = StoreNormCache(store, resolve_metric("euclidean"))
        positions, dists = cache.topk(q, hi - lo, range(lo, hi))
        out = np.empty(hi - lo)
        out[positions - lo] = dists
        return out

    @pytest.mark.parametrize("dim", [3, 8, 24, 64])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_rows_round_alike_in_every_range(self, dim, dtype):
        points = _dataset(n=203, dim=dim).astype(dtype)
        store = VectorStore(dim, dtype=dtype)
        store.extend(points, np.arange(len(points), dtype=np.float64))
        q = _dataset(seed=1, n=1, dim=dim)[0]
        whole = self._distances(store, q, 0, len(points))
        reference = resolve_metric("euclidean").batch(q, points.astype(np.float64))
        np.testing.assert_allclose(whole, reference, rtol=1e-12, atol=1e-12)
        rng = np.random.default_rng(dim)
        for lo in [0, 1, 2, 3, 199, 200, 201, 202] + rng.integers(0, 202, 30).tolist():
            for hi in (lo + 1, lo + 2, lo + 3, lo + 5, min(len(points), lo + 70)):
                hi = min(hi, len(points))
                got = self._distances(store, q, lo, hi)
                assert got.tobytes() == whole[lo:hi].tobytes(), (lo, hi)

    def test_ranges_past_the_blas_threading_cutoff(self):
        # 12 000 x 64 is past the size at which a multi-core OpenBLAS runs
        # one gemv on several threads; the filter's product does, but the
        # distances come from the direct formula, so ranges still agree.
        points = _dataset(n=12_000, dim=64)
        store = VectorStore(64, dtype=np.float64)
        store.extend(points, np.arange(len(points), dtype=np.float64))
        q = _dataset(seed=3, n=1, dim=64)[0]
        n = len(points)
        cache = StoreNormCache(store, resolve_metric("euclidean"))
        whole_positions, whole_dists = cache.topk(q, 50, range(0, n))
        whole = dict(zip(whole_positions.tolist(), whole_dists.tolist()))
        for lo, hi in [(3, n - 1), (0, n // 2 + 1), (n // 2 + 1, n), (1, 4_003)]:
            positions, dists = cache.topk(q, 50, range(lo, hi))
            # The whole answer's rows in the range lead the range's answer,
            # with the same distances.
            inside = [p for p in whole_positions.tolist() if lo <= p < hi]
            assert positions[: len(inside)].tolist() == inside, (lo, hi)
            for p, d in zip(positions.tolist(), dists.tolist()):
                assert p not in whole or whole[p] == d, (lo, hi, p)

    def test_fewer_than_four_rows_in_total(self):
        points = _dataset(n=3, dim=5)
        store = VectorStore(5, dtype=np.float64)
        store.extend(points, np.arange(3, dtype=np.float64))
        q = _dataset(seed=2, n=1, dim=5)[0]
        reference = resolve_metric("euclidean").batch(q, points)
        np.testing.assert_allclose(self._distances(store, q, 0, 3), reference)
        np.testing.assert_allclose(self._distances(store, q, 1, 2), reference[1:2])


class TestFusedAgainstReference:
    """Fused rank distances must order identically to ``metric.batch`` and
    ``finalize`` must recover its values, for every storage dtype and
    memory layout."""

    @pytest.mark.parametrize("name", METRICS)
    @pytest.mark.parametrize(
        "prepare",
        [
            lambda p: p.astype(np.float32),
            lambda p: p.astype(np.float64),
            lambda p: np.asfortranarray(p.astype(np.float32)),
            lambda p: p.astype(np.float32)[::1][:, ::1][::-1][::-1],
        ],
        ids=["f32", "f64", "fortran", "viewed"],
    )
    def test_gather_matches_float64_reference(self, name, prepare):
        metric = resolve_metric(name)
        base = _dataset(seed=3)
        points = prepare(base)
        cache = NormCache(points, metric)
        query = np.random.default_rng(4).standard_normal(base.shape[1])
        fq = cache.query(query)
        idx = np.array([0, 5, 17, 63, 5], dtype=np.int64)

        rank = fq.gather(idx)
        assert rank.dtype == RANK_DTYPE
        dists = fq.finalize(rank)
        assert dists.dtype == RANK_DTYPE
        reference = metric.batch(query, base[idx])
        np.testing.assert_allclose(dists, reference, rtol=1e-5, atol=1e-6)

    @pytest.mark.parametrize("name", METRICS)
    def test_range_matches_gather(self, name):
        # The scan of a range and a gather of its rows agree on the
        # distances, up to the gather's norm-expansion rounding.
        metric = resolve_metric(name)
        points = _dataset(seed=5).astype(np.float32)
        store = VectorStore(points.shape[1])
        store.extend(points, np.arange(len(points), dtype=np.float64))
        query = np.ones(points.shape[1])
        positions, dists = StoreNormCache(store, metric).topk(query, 20, range(10, 30))
        fq = NormCache(points, metric).query(query)
        gathered = fq.finalize(fq.gather(positions))
        np.testing.assert_allclose(dists, gathered, rtol=1e-5, atol=1e-6)
        np.testing.assert_array_equal(np.sort(positions), np.arange(10, 30))

    def test_generic_metric_falls_back_to_batch(self):
        metric = _generic_metric()
        points = _dataset(seed=6).astype(np.float32)
        cache = NormCache(points, metric)
        query = np.full(points.shape[1], 0.25)
        fq = cache.query(query)
        rank = fq.gather(np.arange(len(points)))
        assert rank.dtype == RANK_DTYPE
        np.testing.assert_allclose(
            fq.finalize(rank), metric.batch(query, points), rtol=1e-6
        )

    @pytest.mark.parametrize("name", METRICS)
    def test_float32_and_float64_stores_agree(self, name):
        metric = resolve_metric(name)
        base = _dataset(seed=7)
        query = np.random.default_rng(8).standard_normal(base.shape[1])
        idx = np.arange(0, len(base), 3)
        d32 = NormCache(base.astype(np.float32), metric).query(query)
        d64 = NormCache(base.astype(np.float64), metric).query(query)
        np.testing.assert_allclose(
            d32.finalize(d32.gather(idx)),
            d64.finalize(d64.gather(idx)),
            rtol=1e-5,
            atol=1e-6,
        )

    def test_rank_order_is_monotone_in_distance(self):
        metric = resolve_metric("euclidean")
        points = _dataset(seed=9).astype(np.float32)
        cache = NormCache(points, metric)
        query = np.zeros(points.shape[1])
        fq = cache.query(query)
        rank = fq.gather(np.arange(len(points)))
        reference = metric.batch(query, points)
        np.testing.assert_array_equal(np.argsort(rank), np.argsort(reference))

    def test_epsilon_rank_squares_only_for_euclidean(self):
        points = _dataset().astype(np.float32)
        euclid = NormCache(points, resolve_metric("euclidean")).query(points[0])
        ip = NormCache(points, resolve_metric("ip")).query(points[0])
        assert euclid.epsilon_rank(1.2) == pytest.approx(1.44)
        assert ip.epsilon_rank(1.2) == pytest.approx(1.2)


class TestNormCacheContract:
    def test_retain_points_false_requires_view(self):
        points = _dataset().astype(np.float32)
        cache = NormCache(points, resolve_metric("euclidean"), retain_points=False)
        with pytest.raises(ValueError, match="retaining points"):
            cache.query(points[0])
        fq = cache.query(points[0], points=points)
        assert isinstance(fq, FusedQuery)

    def test_mismatched_view_length_rejected(self):
        points = _dataset().astype(np.float32)
        cache = NormCache(points, resolve_metric("euclidean"))
        with pytest.raises(ValueError, match="rows"):
            cache.query(points[0], points=points[:10])

    def test_evaluations_counter_charges_ranked_rows(self):
        points = _dataset().astype(np.float32)
        cache = NormCache(points, resolve_metric("euclidean"))
        fq = cache.query(points[0])
        assert cache.evaluations == 0
        fq.gather(np.arange(7))
        fq.gather(np.arange(5))
        assert cache.evaluations == 12


class TestStoreNormCache:
    def _store(self, vectors: np.ndarray) -> VectorStore:
        store = VectorStore(vectors.shape[1])
        for i, vector in enumerate(vectors):
            store.append(vector, float(i))
        return store

    def test_incremental_sync_matches_fresh_cache(self):
        vectors = _dataset(seed=10, n=48).astype(np.float32)
        store = self._store(vectors[:20])
        cache = StoreNormCache(store, resolve_metric("euclidean"))
        query = np.zeros(vectors.shape[1])
        first = cache.topk(query, 5, range(0, 20))
        for i in range(20, 48):
            store.append(vectors[i], float(i))
        grown_positions, grown_dists = cache.topk(query, 5, range(0, 48))
        fresh = StoreNormCache(store, resolve_metric("euclidean"))
        fresh_positions, fresh_dists = fresh.topk(query, 5, range(0, 48))
        np.testing.assert_array_equal(grown_positions, fresh_positions)
        np.testing.assert_array_equal(grown_dists, fresh_dists)
        assert len(first[0]) == 5

    def test_topk_batch_agrees_with_topk(self):
        vectors = _dataset(seed=11, n=40).astype(np.float32)
        store = self._store(vectors)
        cache = StoreNormCache(store, resolve_metric("euclidean"))
        queries = _dataset(seed=12, n=6, dim=vectors.shape[1])
        batched = cache.topk_batch(queries, 4, range(5, 35))
        for query, (positions, dists) in zip(queries, batched):
            solo_positions, solo_dists = cache.topk(query, 4, range(5, 35))
            np.testing.assert_array_equal(positions, solo_positions)
            np.testing.assert_array_equal(dists, solo_dists)

    def test_empty_range_returns_empty(self):
        store = self._store(_dataset(n=4).astype(np.float32))
        cache = StoreNormCache(store, resolve_metric("euclidean"))
        positions, dists = cache.topk(np.zeros(8), 3, range(2, 2))
        assert len(positions) == 0 and len(dists) == 0
