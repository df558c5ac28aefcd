"""The exact window scan returns exactly what a plain reference returns.

`StoreNormCache.topk` and `brute_force_topk` rank a long span with one
product in the store's dtype and rerank a shortlist by the direct float64
formula (`repro.distances.fused.scan_topk`).  Their answer must be, for
every input and not only most, the stable argsort of the direct formula
over all rows of the span: the same positions in the same order and the
same distance bytes.  The reference below is that plain computation, kept
here as the oracle; the inputs lean on what can break a rounding bound:
duplicate rows, near-ties at the k-th distance, signed zeros, zero rows and
queries, huge and tiny norms, and spans on both sides of the short-span
cutoff.
"""

from __future__ import annotations

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.brute import brute_force_topk
from repro.distances import resolve_metric
from repro.distances.fused import (
    DIRECT_ROW_COST,
    DIRECT_SPAN_COST,
    StoreNormCache,
    row_sq_norms,
    scan_topk,
)
from repro.distances.metrics import ANGULAR, EUCLIDEAN, INNER_PRODUCT, SQEUCLIDEAN, Metric
from repro.storage import VectorStore

METRICS = ("euclidean", "sqeuclidean", "angular", "ip", "custom")

#: A metric with no fused kind: the scan ranks with ``metric.batch``.
MANHATTAN = Metric(
    name="manhattan-exactness",
    pairwise=lambda u, v: float(np.abs(u - v).sum()),
    batch=lambda q, pts: np.abs(np.asarray(pts, dtype=np.float64) - q).sum(axis=1),
    cross=lambda a, b: np.abs(a[:, None, :] - b[None, :, :]).sum(axis=2),
)


def _metric(name: str) -> Metric:
    return MANHATTAN if name == "custom" else resolve_metric(name)


# --------------------------------------------------------------- oracle


def direct(metric: Metric, q: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """The direct float64 formula, one row at a time (``einsum``)."""
    rows = np.asarray(rows, dtype=np.float64)
    if metric is EUCLIDEAN or metric is SQEUCLIDEAN:
        diff = rows - q
        sq = np.einsum("ij,ij->i", diff, diff)
        return np.sqrt(sq) if metric is EUCLIDEAN else sq
    if metric is INNER_PRODUCT:
        return -np.einsum("ij,j->i", rows, q)
    if metric is ANGULAR:
        q_norm = np.sqrt(q @ q)
        if q_norm == 0.0:
            return np.ones(len(rows))
        norms = np.sqrt(np.einsum("ij,ij->i", rows, rows))
        norms[norms == 0.0] = 1.0
        return 1.0 - np.einsum("ij,j->i", rows, q) / (norms * q_norm)
    return np.asarray(metric.batch(q, rows), dtype=np.float64)


def reference_topk(metric, q, rows, k):
    """``(indices, distances)``: the stable argsort of the direct formula."""
    dist = direct(metric, np.asarray(q, dtype=np.float64).ravel(), rows)
    best = np.argsort(dist, kind="stable")[:k]
    return best, dist[best]


def same(got, want):
    assert got.dtype == want.dtype
    assert got.shape == want.shape
    assert got.tobytes() == want.tobytes()


# --------------------------------------------------------------- inputs


def cutoff_rows(dim: int) -> int:
    """The longest span that skips the filter at ``dim``."""
    return DIRECT_SPAN_COST // (dim + DIRECT_ROW_COST)


@st.composite
def scans(draw):
    """A store, a query, ``k`` and a span, drawn to stress the bound."""
    dtype = draw(st.sampled_from([np.float32, np.float64]))
    dim = draw(st.sampled_from([1, 2, 3, 7, 16, 64]))
    cut = cutoff_rows(dim)
    n = draw(
        st.one_of(
            st.integers(1, 40),
            st.integers(cut - 2, cut + 3),
            st.integers(cut + 4, cut + 400),
        )
    )
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    scale = draw(st.sampled_from([1.0, 1.0, 1e-30, 1e-20, 1e15, 1e30]))
    vectors = rng.standard_normal((n, dim)) * scale
    if draw(st.booleans()):  # a cluster a few ulps wide: ranks are noise
        base = vectors[0].astype(dtype)
        ulps = rng.integers(-4, 5, (n, dim)) * np.spacing(np.abs(base))
        vectors = (base + ulps.astype(dtype)).astype(np.float64)
    if draw(st.booleans()):  # repeated rows: exact ties in every metric
        vectors = vectors[rng.integers(0, max(1, n // 4), n)]
    if draw(st.booleans()):  # rows one ulp apart: near-ties
        pick = rng.integers(0, n, max(1, n // 3))
        vectors[pick] = np.nextafter(
            vectors[rng.integers(0, n, len(pick))].astype(dtype),
            np.asarray(np.inf, dtype=dtype),
        )
    if draw(st.booleans()):
        vectors[rng.integers(0, n, max(1, n // 10))] = 0.0
    if draw(st.booleans()):  # signed zeros
        vectors[rng.random((n, dim)) < 0.3] = -0.0
    store = VectorStore(dim, dtype=dtype)
    store.extend(vectors, np.arange(n, dtype=np.float64))
    stored = store.vectors.astype(np.float64)
    query_kind = draw(
        st.sampled_from(["normal", "row", "near-row", "zero", "huge", "tiny", "mid"])
    )
    if query_kind == "row":
        query = stored[rng.integers(0, n)].copy()
    elif query_kind == "near-row":
        row = stored[rng.integers(0, n)]
        query = row + rng.standard_normal(dim) * 1e-7 * (np.abs(row).max() + 1e-30)
    elif query_kind == "zero":
        query = np.zeros(dim)
        query[rng.random(dim) < 0.5] = -0.0
    elif query_kind == "huge":  # float32 overflow of q (and of its norm)
        query = rng.standard_normal(dim) * 1e39
    elif query_kind == "tiny":  # float32 subnormal or zero components
        query = rng.standard_normal(dim) * 1e-42
    elif query_kind == "mid":  # equidistant from two rows: a tie at the k-th
        a, b = rng.integers(0, n, 2)
        query = (stored[a] + stored[b]) / 2
    else:
        query = rng.standard_normal(dim) * scale
    lo = draw(st.integers(0, n - 1))
    hi = draw(st.integers(lo + 1, n))
    k = draw(st.integers(1, hi - lo + 2))
    return store, query, k, range(lo, hi)


SETTINGS = settings(
    max_examples=400,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)


class TestScanIsExact:
    @SETTINGS
    @given(scans(), st.sampled_from(METRICS))
    def test_store_topk_matches_the_reference(self, case, name):
        store, query, k, positions = case
        metric = _metric(name)
        cache = StoreNormCache(store, metric)
        lo, hi = positions.start, positions.stop
        best, dists = reference_topk(metric, query, store.slice(lo, hi), k)
        for _ in range(2):  # the second call reads the synced cache
            got_positions, got_dists = cache.topk(query, k, positions)
            same(got_positions, (best + lo).astype(np.int64))
            same(got_dists, dists)
        assert cache.evaluations == 2 * (hi - lo)

    @SETTINGS
    @given(scans(), st.sampled_from(METRICS))
    def test_brute_force_topk_matches_the_reference(self, case, name):
        store, query, k, positions = case
        metric = _metric(name)
        lo, hi = positions.start, positions.stop
        best, dists = reference_topk(metric, query, store.slice(lo, hi), k)
        got_positions, got_dists = brute_force_topk(store, metric, query, k, positions)
        same(got_positions, (best + lo).astype(np.int64))
        same(got_dists, dists)

    def test_a_tie_group_straddling_the_kth_distance(self):
        # Forty copies of one row sit at the k-th distance, with nearer and
        # farther rows around them: the tie is broken by position.
        rng = np.random.default_rng(3)
        rows = rng.standard_normal((600, 16)).astype(np.float32)
        rows[100:600:12] = rows[7]
        query = rows[7].astype(np.float64) + 0.05
        for name in ("euclidean", "sqeuclidean", "angular", "ip"):
            metric = resolve_metric(name)
            for k in (1, 3, 20, 45, 60):
                got = scan_topk(metric, query, k, rows)
                want = reference_topk(metric, query, rows, k)
                same(got[0], want[0])
                same(got[1], want[1])

    def test_products_that_overflow_for_one_row(self):
        # Row 300 is the nearest, but its float32 product with the query
        # sums an overflowed +inf and -inf term to NaN, which no threshold
        # keeps; the other rows' products stay finite.
        rng = np.random.default_rng(4)
        rows = rng.standard_normal((600, 16)).astype(np.float32)
        rows[300] = 0.0
        rows[300, :2] = (2e30, -2e30)
        query = np.zeros(16)
        query[:2] = (3e30, 1e29)
        for name in ("euclidean", "sqeuclidean", "angular", "ip"):
            metric = resolve_metric(name)
            for k in (1, 5):
                got = scan_topk(metric, query, k, rows)
                want = reference_topk(metric, query, rows, k)
                same(got[0], want[0])
                same(got[1], want[1])


class TestShortlist:
    def test_the_filter_runs_and_its_shortlist_is_short(self, monkeypatch):
        # Ordinary data: the filter, not the direct fallback, answers, and
        # it reranks only a few rows beyond k.
        import repro.distances.fused as fused

        lengths = []
        shortlist = fused._shortlist

        def counted(*args):
            found = shortlist(*args)
            lengths.append(None if found is None else len(found))
            return found

        monkeypatch.setattr(fused, "_shortlist", counted)
        rng = np.random.default_rng(11)
        rows = rng.standard_normal((2000, 64)).astype(np.float32)
        norms = row_sq_norms(rows)
        metric = resolve_metric("euclidean")
        for query in rng.standard_normal((50, 64)):
            got = scan_topk(metric, query, 10, rows, norms)
            want = reference_topk(metric, query, rows, 10)
            same(got[0], want[0])
        assert None not in lengths and len(lengths) == 50
        assert max(lengths) <= 12

    def test_a_span_at_the_cutoff_takes_the_direct_path(self, monkeypatch):
        import repro.distances.fused as fused

        def refuse(*args):
            raise AssertionError("a short span ran the filter")

        monkeypatch.setattr(fused, "_shortlist", refuse)
        rng = np.random.default_rng(12)
        for dim in (1, 16, 64, 960):
            rows = rng.standard_normal((cutoff_rows(dim), dim)).astype(np.float32)
            query = rng.standard_normal(dim)
            got = scan_topk(resolve_metric("euclidean"), query, 5, rows)
            want = reference_topk(resolve_metric("euclidean"), query, rows, 5)
            same(got[0], want[0])
            same(got[1], want[1])
