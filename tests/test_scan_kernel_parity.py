"""Parity of the exact-scan kernels against their plain forms.

`top_k_smallest` ranks short spans with one stable sort and skips the tie
repair when no tie group crosses the cut; it must give exactly what the
straightforward version below gives, the kernel as it stood before that
rework, kept here verbatim as an oracle.  `StoreNormCache.topk` ranks a span
in the store's dtype and reranks a shortlist directly; it must give exactly
the ranking oracle of `tests/test_scan_exactness.py` (the stable argsort of
the direct float64 formula over the span): same indices in the same order,
same distance bytes, same evaluation counts.
"""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.distances import resolve_metric
from repro.distances.fused import StoreNormCache
from repro.distances.kernels import SORT_CUTOFF, top_k_smallest
from repro.distances.metrics import Metric
from repro.storage import VectorStore

from .test_scan_exactness import reference_topk

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


def reference_store_topk(cache, query, k, positions):
    """``StoreNormCache.topk`` by the ranking oracle, charging the cache."""
    lo, hi = positions.start, positions.stop
    if lo >= hi:
        return np.empty(0, dtype=np.int64), np.empty(0, dtype=np.float64)
    cache.evaluations += hi - lo
    rows = cache._store.slice(lo, hi)
    best, dists = reference_topk(cache.metric, query, rows, k)
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


# ------------------------------------------------------------ store top-k


@st.composite
def scans(draw):
    dtype = draw(st.sampled_from([np.float32, np.float64]))
    dim = draw(st.sampled_from([1, 2, 5, 16, 64]))
    n = draw(st.one_of(st.integers(1, 3), st.integers(4, 70), st.integers(150, 400)))
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
        # The live prefix grows past the cache's first capacity, and the
        # span past the short-span cutoff, between calls; the cached norms
        # the filter reads follow the store.
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
