"""Bit-parity of the exact-scan kernels against their plain forms.

`top_k_smallest` ranks short spans with one stable sort and skips the tie
repair when no tie group crosses the cut, `range_dots` makes one BLAS call
when the range fits one serial call, and `StoreNormCache.topk` ranks the
range without binding a `FusedQuery`.  Each must give exactly what the
straightforward versions below give — same indices in the same order, same
distance bytes, same evaluation counts — because a scan that moves by one
ulp moves answers.  The reference functions are the kernels as they stood
before that rework, kept here verbatim as oracles.
"""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.distances import resolve_metric
from repro.distances.fused import (
    GEMV_SERIAL_ELEMENTS,
    StoreNormCache,
    range_dots,
)
from repro.distances.kernels import SORT_CUTOFF, top_k_smallest
from repro.distances.metrics import ANGULAR, EUCLIDEAN, INNER_PRODUCT, SQEUCLIDEAN, Metric
from repro.storage import VectorStore

METRICS = ("euclidean", "sqeuclidean", "angular", "ip")

#: A metric with no fused kind: the scan goes through ``metric.batch``.
MANHATTAN = Metric(
    name="manhattan-parity",
    pairwise=lambda u, v: float(np.abs(u - v).sum()),
    batch=lambda q, pts: np.abs(pts - q).sum(axis=1),
    cross=lambda a, b: np.abs(a[:, None, :] - b[None, :, :]).sum(axis=2),
)


# --------------------------------------------------------------- oracles


def reference_top_k_smallest(values, k):
    n = len(values)
    if k >= n:
        return np.lexsort((np.arange(n), values))
    part = np.argpartition(values, k - 1)[:k]
    # argpartition breaks ties at the k-th value arbitrarily; re-select the
    # tie group by index so the result is deterministic.
    kth = values[part].max()
    below = np.nonzero(values < kth)[0]
    ties = np.nonzero(values == kth)[0][: k - len(below)]
    chosen = np.concatenate([below, ties])
    order = np.lexsort((chosen, values[chosen]))
    return chosen[order]


def reference_range_dots(points, lo, hi, q):
    n = hi - lo
    dots = np.empty(n, dtype=np.result_type(points.dtype, q.dtype))
    body = n - n % 4
    step = max(4, (GEMV_SERIAL_ELEMENTS - 1) // points.shape[1] // 4 * 4)
    for start in range(0, body, step):
        stop = min(start + step, body)
        np.matmul(points[lo + start : lo + stop], q, out=dots[start:stop])
    if body < n:
        if len(points) >= 4:
            start = max(0, hi - 4)
            dots[body:] = (points[start : start + 4] @ q)[lo + body - start : hi - start]
        else:
            dots[body:] = points[lo + body : hi] @ q
    return dots


def reference_store_topk(cache, query, k, positions):
    """``StoreNormCache.topk`` through ``query``/``FusedQuery`` as it was."""
    lo, hi = positions.start, positions.stop
    if lo >= hi:
        return np.empty(0, dtype=np.int64), np.empty(0, dtype=np.float64)
    # StoreNormCache.query
    cache._sync()
    n = len(cache._store)
    points = cache._store.slice(0, n)
    metric = cache.metric
    sq = metric is EUCLIDEAN or metric is SQEUCLIDEAN
    angular = metric is ANGULAR
    generic = not (sq or angular or metric is INNER_PRODUCT)
    row_data = cache._row_data[:n] if sq or angular else None
    q = np.asarray(query, dtype=np.float64).ravel()
    q_sq = float(q @ q) if sq else 0.0
    q_norm = float(np.sqrt(q @ q)) if angular else 0.0
    # FusedQuery.range
    rows = points[lo:hi]
    row_data = row_data[lo:hi] if row_data is not None else None
    cache.evaluations += len(rows)
    dots = None if generic else reference_range_dots(points, lo, hi, q)
    # FusedQuery._rank_rows
    if generic:
        rank = np.asarray(metric.batch(q, rows), dtype=np.float64)
    elif sq:
        rank = row_data - 2.0 * dots
        rank += q_sq
        np.maximum(rank, 0.0, out=rank)
    elif angular:
        if q_norm == 0.0:
            rank = np.ones(len(rows), dtype=np.float64)
        else:
            sims = dots / (row_data * q_norm)
            rank = 1.0 - sims
    else:
        rank = -dots
    best = reference_top_k_smallest(rank, k)
    # FusedQuery.finalize
    survivors = np.asarray(rank[best], dtype=np.float64)
    if metric is EUCLIDEAN:
        dists = np.sqrt(np.maximum(survivors, 0.0))
    else:
        dists = survivors.copy() if survivors.base is not None else survivors
    return (lo + best).astype(np.int64), dists


def _same(got, want):
    assert got.dtype == want.dtype
    assert got.shape == want.shape
    assert got.tobytes() == want.tobytes()


# ------------------------------------------------------------ top-k


#: Values drawn from a small pool so ties, signed zeros and infinities are
#: common; ``"any"`` stands for an arbitrary finite float.
POOL = (-np.inf, -2.5, -1.0, -0.0, 0.0, 0.5, 1.0, 3.0, np.inf, "any")


@st.composite
def spans(draw):
    n = draw(
        st.one_of(
            st.integers(0, 40),
            st.integers(SORT_CUTOFF - 3, SORT_CUTOFF + 3),
            st.integers(SORT_CUTOFF + 4, 3 * SORT_CUTOFF),
        )
    )
    dtype = draw(st.sampled_from([np.float64, np.float32]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    pool_size = draw(st.integers(1, len(POOL)))
    picks = rng.integers(0, pool_size, n)
    values = np.array(
        [rng.standard_normal() if POOL[i] == "any" else POOL[i] for i in picks],
        dtype=dtype,
    )
    k = draw(st.integers(1, n + 3)) if n else draw(st.integers(1, 3))
    return values, k


class TestTopKParity:
    @settings(max_examples=300, deadline=None)
    @given(spans())
    def test_matches_the_reference_indices(self, case):
        values, k = case
        _same(top_k_smallest(values, k), reference_top_k_smallest(values, k)[:k])

    def test_ties_across_the_cut_above_the_cutoff(self):
        # The k-th value's tie group straddles the cut: the repair path.
        n = 4 * SORT_CUTOFF
        values = np.zeros(n)
        values[::3] = -0.0
        values[1::7] = -1.0
        for k in (1, 10, n // 7, n // 7 + 1, n // 2, n - 1):
            _same(top_k_smallest(values, k), reference_top_k_smallest(values, k))

    def test_no_tie_at_the_cut_above_the_cutoff(self):
        rng = np.random.default_rng(5)
        values = rng.standard_normal(3 * SORT_CUTOFF)
        values[:50] = np.inf
        for k in (1, 10, 100, len(values) - 51, len(values) - 1, len(values)):
            _same(
                top_k_smallest(values, k), reference_top_k_smallest(values, k)[:k]
            )


# ------------------------------------------------------------ range dots


@st.composite
def ranges(draw):
    dtype = draw(st.sampled_from([np.float32, np.float64]))
    # Wide rows make one serial call hold only a few rows, so the
    # multi-call loop runs; narrow rows take the one-call path.
    dim = draw(st.sampled_from([1, 3, 8, 64, 700, 2400, 3000]))
    n = draw(st.integers(1, 40))
    lo = draw(st.integers(0, n - 1))
    hi = draw(st.integers(lo, n))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    points = rng.standard_normal((n, dim)).astype(dtype)
    q = rng.standard_normal(dim).astype(
        draw(st.sampled_from([np.float64, np.float32]))
    )
    return points, lo, hi, q


class TestRangeDotsParity:
    @settings(max_examples=300, deadline=None)
    @given(ranges())
    def test_matches_the_reference_bytes(self, case):
        points, lo, hi, q = case
        _same(range_dots(points, lo, hi, q), reference_range_dots(points, lo, hi, q))


# ------------------------------------------------------------ store top-k


@st.composite
def scans(draw):
    dtype = draw(st.sampled_from([np.float32, np.float64]))
    dim = draw(st.sampled_from([1, 2, 5, 16, 64]))
    n = draw(st.one_of(st.integers(1, 3), st.integers(4, 70)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    vectors = rng.standard_normal((n, dim))
    if draw(st.booleans()):  # repeated rows: ties in every metric
        vectors = vectors[rng.integers(0, max(1, n // 3), n)]
    if draw(st.booleans()):
        vectors[rng.integers(0, n)] = 0.0
    store = VectorStore(dim, dtype=dtype)
    store.extend(vectors, np.arange(n, dtype=np.float64))
    query = rng.standard_normal(dim)
    if draw(st.booleans()):
        query = vectors[rng.integers(0, n)].copy()
    elif draw(st.booleans()):
        query = np.zeros(dim)
    lo = draw(st.integers(0, n))
    hi = draw(st.integers(lo, n))
    k = draw(st.integers(1, n + 2))
    return store, query, k, range(lo, hi)


class TestStoreTopKParity:
    @settings(max_examples=200, deadline=None)
    @given(scans(), st.sampled_from(METRICS + ("custom",)))
    def test_matches_the_reference_bytes(self, case, name):
        store, query, k, positions = case
        metric = MANHATTAN if name == "custom" else resolve_metric(name)
        cache = StoreNormCache(store, metric)
        oracle = StoreNormCache(store, metric)
        for _ in range(2):  # the second call reads the synced cache
            got = cache.topk(query, k, positions)
            want = reference_store_topk(oracle, query, k, positions)
            _same(got[0], want[0])
            _same(got[1], want[1])
            assert cache.evaluations == oracle.evaluations

    @settings(max_examples=100, deadline=None)
    @given(scans(), st.sampled_from(METRICS))
    def test_rows_appended_between_scans(self, case, name):
        # The live prefix grows past 4 rows (and past the cache's first
        # capacity) between calls; the tail kernel follows the store.
        store, query, k, positions = case
        metric = resolve_metric(name)
        cache = StoreNormCache(store, metric)
        oracle = StoreNormCache(store, metric)
        rng = np.random.default_rng(len(store))
        for grow in (1, 3, 1100):
            got = cache.topk(query, k, positions)
            want = reference_store_topk(oracle, query, k, positions)
            _same(got[0], want[0])
            _same(got[1], want[1])
            last = store.latest_timestamp
            store.extend(
                rng.standard_normal((grow, store.dim)),
                np.full(grow, last + 1.0),
            )
            positions = range(positions.start, len(store))
