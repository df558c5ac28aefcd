"""Fused gather-distance kernels with precomputed per-row norm caches.

Every hot search path in the library — beam search over a block graph, the
brute-force window scan — bottoms out in
the same computation: *distances from one query to a subset of a fixed
dataset's rows*.  Recomputing ``|p|^2`` for those rows on every call (which
is what ``metric.batch`` does via its ``points - query`` expansion) wastes
the one thing an append-only store guarantees: the rows never change.

This module precomputes the per-row state once per dataset and exposes
**fused kernels** that answer each request with a single gather + BLAS
call:

* for (squared) euclidean metrics the identity
  ``|p - q|^2 = |p|^2 - 2 <p, q> + |q|^2`` turns a distance evaluation into
  one cached load plus one dot product, with the ``sqrt`` deferred until
  the final top-k is fixed;
* for angular distance the cached row norms turn each evaluation into one
  dot product and one divide;
* for inner product no cache is needed, and unknown (user-registered)
  metrics fall back to ``metric.batch`` on the gathered rows, so every
  metric works — known ones just go faster.

Two cache flavours exist:

* :class:`NormCache` — a snapshot over one immutable dataset (a sealed
  MBI block, SF's built graph span).  Owned by the backend that built it
  and replaced wholesale when the backend is rebuilt.
* :class:`StoreNormCache` — a growable cache over an append-only
  :class:`~repro.storage.VectorStore` (the brute-force/BSBF scan path).
  Norms for newly appended rows are computed incrementally on first use;
  rows are re-resolved from the store on every call so buffer reallocation
  inside the store can never be observed.

**The exact scan.**  :func:`scan_topk` (behind :meth:`StoreNormCache.topk`)
answers a window scan exactly: its result is the stable sort of the
*direct* float64 formula over every row of the span, positions and
distance bytes alike.  Long spans are ranked by one product in the store's
own dtype, which is several times cheaper than a float32-by-float64
product; every row whose rank lies within a proven rounding bound of the
``k``-th is then recomputed directly.  The direct formula rounds each row
on its own, so a row's distance does not depend on which rows share the
scan or on the BLAS thread count.

**Rank space.**  Fused kernels return *rank distances*: a monotone
transform of the metric's distance (squared distance for euclidean, the
distance itself otherwise) as a ``float64`` array — the documented output
dtype of every fused kernel.  Ordering, top-k selection, and the epsilon
bound of Algorithm 2 all work directly in rank space;
:meth:`FusedQuery.finalize` converts the survivors back to true distances
at the very end.

**Work accounting.**  Every fused call increments its cache's
``evaluations`` counter by the number of rows it ranked, which is exactly
the number the :ref:`distance-counting convention <counting-convention>`
charges — search code and kernels therefore agree by construction, and
``tests/test_beam_search.py`` pins the two counters against each other.
"""

from __future__ import annotations

import functools
import math
import threading

import numpy as np

from .kernels import top_k_smallest
from .metrics import ANGULAR, EUCLIDEAN, INNER_PRODUCT, SQEUCLIDEAN, Metric

#: Documented dtype of every fused kernel output (rank and final distances).
RANK_DTYPE = np.float64

# Fused strategy kinds.  Dispatch is by *identity* against the registry
# singletons: a user-registered metric that merely shares a name falls back
# to the generic (always-correct) path instead of silently inheriting the
# wrong algebra.
_KIND_SQ = "sq"  # rank = squared L2 (euclidean) or L2^2 == distance (sqeuclidean)
_KIND_ANGULAR = "angular"
_KIND_IP = "ip"
_KIND_GENERIC = "generic"


def _kind_of(metric: Metric) -> str:
    if metric is EUCLIDEAN or metric is SQEUCLIDEAN:
        return _KIND_SQ
    if metric is ANGULAR:
        return _KIND_ANGULAR
    if metric is INNER_PRODUCT:
        return _KIND_IP
    return _KIND_GENERIC


def as_fused_points(points: np.ndarray) -> np.ndarray:
    """C-contiguous float storage for a dataset consumed by fused kernels.

    ``float32``/``float64`` inputs keep their dtype (a contiguous float32
    store slice passes through without a copy — the common case); anything
    else is converted to ``float32``, the library's storage dtype.
    """
    points = np.asarray(points)
    if points.dtype not in (np.float32, np.float64):
        points = points.astype(np.float32)
    return np.ascontiguousarray(points)


def row_sq_norms(points: np.ndarray) -> np.ndarray:
    """Squared L2 row norms, accumulated in float64 regardless of input dtype."""
    return np.einsum("ij,ij->i", points, points, dtype=np.float64)


def row_norms(points: np.ndarray) -> np.ndarray:
    """L2 row norms in float64, zeros replaced by 1 (angular convention)."""
    norms = np.sqrt(row_sq_norms(points))
    return np.where(norms == 0.0, 1.0, norms)


def _row_data_for(kind: str, points: np.ndarray) -> np.ndarray | None:
    if kind == _KIND_SQ:
        return row_sq_norms(points)
    if kind == _KIND_ANGULAR:
        return row_norms(points)
    return None


class FusedQuery:
    """One query vector bound to a cache and a points view.

    Produced by :meth:`NormCache.query`;
    its methods return **rank distances** (see module docstring) as
    ``float64`` arrays and charge the owning cache's ``evaluations``
    counter one unit per ranked row.
    """

    __slots__ = ("_owner", "_kind", "_sqrt", "points", "row_data", "q", "q_sq", "q_norm")

    def __init__(self, owner, kind, sqrt_finalize, points, row_data, query):
        self._owner = owner
        self._kind = kind
        self._sqrt = sqrt_finalize
        self.points = points
        self.row_data = row_data
        q = np.asarray(query, dtype=np.float64).ravel()
        self.q = q
        self.q_sq = float(q @ q) if kind == _KIND_SQ else 0.0
        self.q_norm = float(np.sqrt(q @ q)) if kind == _KIND_ANGULAR else 0.0

    # ------------------------------------------------------------- kernels

    def gather(self, idx: np.ndarray) -> np.ndarray:
        """Rank distances from the query to ``points[idx]`` (one fused call)."""
        rows = self.points[idx]
        self._owner.evaluations += len(rows)
        kind = self._kind
        if kind == _KIND_GENERIC:
            return np.asarray(
                self._owner.metric.batch(self.q, rows), dtype=RANK_DTYPE
            )
        dots = rows @ self.q  # float64 via dtype promotion
        if kind == _KIND_SQ:
            rank = self.row_data[idx] - 2.0 * dots
            rank += self.q_sq
            np.maximum(rank, 0.0, out=rank)
            return rank
        if kind == _KIND_ANGULAR:
            if self.q_norm == 0.0:
                return np.ones(len(dots), dtype=RANK_DTYPE)
            return 1.0 - dots / (self.row_data[idx] * self.q_norm)
        return -dots

    # ----------------------------------------------------------- rank space

    def finalize(self, rank: np.ndarray) -> np.ndarray:
        """Convert rank distances back to true metric distances (float64)."""
        rank = np.asarray(rank, dtype=RANK_DTYPE)
        if self._sqrt:
            return np.sqrt(np.maximum(rank, 0.0))
        return rank.copy() if rank.base is not None else rank

    def epsilon_rank(self, epsilon: float) -> float:
        """Algorithm 2's epsilon expressed in rank space.

        For euclidean, ``d > eps * worst  <=>  d^2 > eps^2 * worst^2`` (both
        sides non-negative); every other kind ranks in distance space, where
        epsilon applies unchanged — bit-for-bit the legacy bound semantics.
        """
        return epsilon * epsilon if self._sqrt else epsilon


class NormCache:
    """Precomputed fused-kernel state over one immutable dataset.

    Owned by whoever owns the dataset: each built block backend constructs
    one over its position slice at build/load time and drops it when the
    backend is replaced (rebuild invalidation is wholesale replacement —
    the cache can never outlive the data it describes).

    Attributes:
        metric: The distance metric the cache serves.
        points: The cached float-contiguous dataset view, or ``None`` when
            built with ``retain_points=False`` (store-backed owners drop
            the view so the cache can never pin a reallocated buffer, and
            re-resolve a fresh slice per search instead).
        evaluations: Running count of rows ranked through this cache (the
            kernel-side half of the distance-counting convention).
    """

    __slots__ = (
        "metric", "points", "evaluations", "_kind", "_sqrt", "_row_data", "_n"
    )

    def __init__(
        self, points: np.ndarray, metric: Metric, *, retain_points: bool = True
    ) -> None:
        self.metric = metric
        pts = as_fused_points(points)
        self._n = len(pts)
        self._kind = _kind_of(metric)
        self._sqrt = metric is EUCLIDEAN
        self._row_data = _row_data_for(self._kind, pts)
        self.points = pts if retain_points else None
        self.evaluations = 0

    def __len__(self) -> int:
        return self._n

    def query(self, query: np.ndarray, points: np.ndarray | None = None) -> FusedQuery:
        """Bind one query vector; returns a :class:`FusedQuery`.

        Args:
            query: The query vector.
            points: Optional fresh view of the *same* rows (callers holding
                a store re-resolve their slice per search so the cache never
                pins a stale backing buffer).  Must match the cached length.
                Required when the cache was built with
                ``retain_points=False``.
        """
        if points is None:
            if self.points is None:
                raise ValueError(
                    "cache was built without retaining points; pass a fresh "
                    "points view to query()"
                )
            points = self.points
        elif len(points) != self._n:
            raise ValueError(
                f"points view has {len(points)} rows but the cache covers "
                f"{self._n}"
            )
        return FusedQuery(self, self._kind, self._sqrt, points, self._row_data, query)

    def nbytes(self) -> int:
        """Bytes used by the cached per-row data (the points are shared)."""
        return int(self._row_data.nbytes) if self._row_data is not None else 0

    @property
    def row_data(self) -> np.ndarray | None:
        """The per-row cached data (squared norms / norms), or ``None``.

        Exposed for serialisation: a demoted block's cold file stores this
        array so promotion can restore the cache without touching the
        vectors (see :meth:`from_row_data`).
        """
        return self._row_data

    @classmethod
    def from_row_data(
        cls,
        row_data: np.ndarray | None,
        metric: Metric,
        n_rows: int,
    ) -> "NormCache":
        """Rebuild a cache from previously computed per-row data.

        The inverse of reading :attr:`row_data`: no norms are recomputed, so
        promoting a cold block costs one array load instead of a pass over
        its vectors.  The caller guarantees ``row_data`` was computed by a
        cache with the same ``metric`` over the same ``n_rows`` rows — the
        stored rows are immutable (sealed block), so the loaded cache is
        bit-identical to a freshly computed one.

        ``row_data=None`` is valid for metrics that cache nothing
        (inner-product and generic metrics); a mismatched length raises.
        """
        cache = cls.__new__(cls)
        cache.metric = metric
        cache._n = int(n_rows)
        cache._kind = _kind_of(metric)
        cache._sqrt = metric is EUCLIDEAN
        expected = _row_data_for(cache._kind, np.empty((0, 1))) is not None
        if expected:
            if row_data is None:
                raise ValueError(
                    f"metric {metric.name!r} requires per-row data but none "
                    "was given"
                )
            row_data = np.ascontiguousarray(row_data, dtype=np.float64)
            if len(row_data) != cache._n:
                raise ValueError(
                    f"row_data has {len(row_data)} rows but the cache covers "
                    f"{cache._n}"
                )
            cache._row_data = row_data
        else:
            cache._row_data = None
        cache.points = None
        cache.evaluations = 0
        return cache


# ------------------------------------------------------------- exact scan

#: A span of ``n`` rows of dimension ``d`` skips the filter of
#: :func:`scan_topk` and takes the direct formula on every row when
#: ``n * (d + DIRECT_ROW_COST) <= DIRECT_SPAN_COST``.  Both paths give the
#: same answer, so this is a speed cutoff only.  The direct pass costs about
#: ``d + 96`` units per row and the filter about 20 000 units whatever the
#: span: measured on a 2-core x86 VM, the two break even at about 210 rows
#: at dim 16, 150 at dim 64 and 20 at dim 960.
DIRECT_ROW_COST = 96
DIRECT_SPAN_COST = 20_000

_U64 = float(np.finfo(np.float64).eps) / 2
_TINY64 = float(np.finfo(np.float64).tiny)
#: Norms below this take the direct path: the error bounds below assume
#: squared norms far from float64 underflow.
_NORM_FLOOR = 1e-100


def _gamma(n: int, u: float) -> float:
    """Higham's ``gamma_n``: the relative error of an ``n``-term dot product."""
    return n * u / (1.0 - n * u) if n * u < 0.5 else math.inf


def _scan_row_data(kind: str, points: np.ndarray) -> np.ndarray:
    """The per-row data the scan's filter reads: squared norms, or norms."""
    return row_sq_norms(points) if kind == _KIND_SQ else row_norms(points)


def _direct(kind: str, sqrt: bool, q: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """Distances from ``q`` to ``rows`` by the direct float64 formula.

    A row's value is a function of that row and ``q`` alone: each is an
    ``einsum`` reduction over the row's own difference or product, never a
    gemv, whose tail kernel rounds a row by its place in the call.  A
    shortlist reranked here therefore gets the bytes a pass over the whole
    span would give it.
    """
    if kind == _KIND_SQ:
        diff = rows.astype(np.float64)
        diff -= q
        dist = np.einsum("ij,ij->i", diff, diff)
        return np.sqrt(dist) if sqrt else dist
    rows = np.asarray(rows, dtype=np.float64)
    dots = np.einsum("ij,j->i", rows, q)
    if kind == _KIND_IP:
        return -dots
    q_norm = np.sqrt(q @ q)
    if q_norm == 0.0:
        return np.ones(len(rows), dtype=RANK_DTYPE)
    norms = np.sqrt(np.einsum("ij,ij->i", rows, rows))
    norms[norms == 0.0] = 1.0
    return 1.0 - dots / (norms * q_norm)


@functools.lru_cache(maxsize=None)
def _bound_terms(dtype: np.dtype, d: int) -> tuple[float, ...]:
    """Constants of :func:`_shortlist`'s error bound for ``d``-dim rows of ``dtype``.

    ``(big, grow, rel, tiny, g64)``: the largest safe product magnitude;
    the factor that turns a computed float64 norm into an upper bound; the
    relative error of a product in ``dtype``, the query's rounding to
    ``dtype`` included; the dtype's smallest normal, the unit of its
    underflow error; and the direct formula's relative error.
    """
    info = np.finfo(dtype)
    u = float(info.eps) / 2
    return (
        float(info.max) / 8,
        1.0 + 4.0 * _gamma(d + 2, _U64),
        u + _gamma(d, u) * (1 + u),
        float(info.tiny),
        _gamma(d + 3, _U64),
    )


def _shortlist(
    kind: str, q: np.ndarray, k: int, rows: np.ndarray, row_data: np.ndarray
) -> np.ndarray | None:
    """Rows that may be among the ``k`` nearest, or ``None`` if unbounded.

    Ranks every row with one product in the rows' own dtype, bounds each
    rank's distance from the direct formula's value by ``err`` (the same
    bound for every row of the span, from its largest norm), and keeps
    every row whose lower bound ``rank - err`` is at most the ``k``-th
    smallest upper bound ``rank + err``.  Any other row is strictly farther
    than ``k`` rows, so the shortlist holds the exact top ``k``.  ``None``
    (take the direct path) when the query's cast or the products could
    leave the dtype's finite range, or a norm is too small for the bound.

    The bound sums, in float64: the product's rounding ``gamma_d * |p| |q|``
    in the rows' dtype, the query's rounding to that dtype, underflow of
    each term, the rounding of the cached norms and of the rank itself, the
    direct formula's own error, and a margin that keeps euclidean ``sqrt``
    from merging two distances it separates.  It is then taken 1.25 times.
    """
    d = rows.shape[1]
    big, grow, rel, tiny, g64 = _bound_terms(rows.dtype, d)
    raw_q_norm = math.sqrt(float(q @ q))
    q_norm = (raw_q_norm + _NORM_FLOOR) * grow
    top = float(row_data.max())
    top = ((math.sqrt(top) if kind == _KIND_SQ else top) + _NORM_FLOOR) * grow
    if not (q_norm < big and top * q_norm < big):
        return None
    dots = rows @ q.astype(rows.dtype)
    root_d = math.sqrt(d)
    # Underflow: each term's product, and a subnormal row or query
    # component read as zero.
    under = tiny * (2 * root_d * (top + q_norm) + d)
    if kind == _KIND_SQ:
        rank = row_data - 2.0 * dots
        scale = (top + q_norm) ** 2
        err = 2 * (rel * top * q_norm + under) + (2 * g64 + 9 * _U64) * scale
    elif kind == _KIND_ANGULAR:
        # rank = -cos * |q|: the cosine scaled by the query norm.
        least = float(row_data.min()) / grow
        if raw_q_norm < _NORM_FLOOR or least < _NORM_FLOOR:
            return None
        rank = np.divide(dots, row_data)
        np.negative(rank, out=rank)
        scale = q_norm
        err = q_norm * (1.01 * rel + 7 * g64)
        err += tiny * (root_d * (2 + 2 * q_norm / least) + 2 * d / least)
    else:
        rank = np.negative(dots, dtype=np.float64)
        scale = top * q_norm
        err = (rel + g64) * scale + under
    err = 1.25 * (err + 4 * _U64 * scale + d * _TINY64)
    threshold = float(np.partition(rank, k - 1)[k - 1]) + 2 * err
    if not math.isfinite(threshold):
        return None
    return np.flatnonzero(rank <= threshold)


def scan_topk(
    metric: Metric,
    query: np.ndarray,
    k: int,
    rows: np.ndarray,
    row_data: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Exact top-``k`` of ``rows``: ``(indices, distances)``.

    The result is ``np.argsort(direct, kind="stable")[:k]`` of the direct
    float64 formula over every row, with those rows' direct distances.
    Spans above the :data:`DIRECT_SPAN_COST` cutoff are first ranked by one
    product in the rows' dtype, and only a shortlist that provably holds the
    top ``k`` is recomputed directly (see :func:`_shortlist`).  A metric with no
    fused kind ranks with ``metric.batch`` instead.

    ``row_data`` is the rows' cached squared norms (euclidean kinds) or
    norms (angular, inner product); it is computed when not given.
    """
    q = np.asarray(query, dtype=np.float64).ravel()
    kind = _kind_of(metric)
    if kind == _KIND_GENERIC:
        dist = np.asarray(metric.batch(q, rows), dtype=RANK_DTYPE)
        best = top_k_smallest(dist, k)
        return best, dist[best]
    sqrt = metric is EUCLIDEAN
    n = len(rows)
    if (
        k < n
        and n * (rows.shape[1] + DIRECT_ROW_COST) > DIRECT_SPAN_COST
        and rows.dtype in (np.float32, np.float64)
    ):
        if row_data is None:
            row_data = _scan_row_data(kind, rows)
        shortlist = _shortlist(kind, q, k, rows, row_data)
        if shortlist is not None:
            dist = _direct(kind, sqrt, q, rows[shortlist])
            order = np.argsort(dist, kind="stable")[:k]
            return shortlist[order], dist[order]
    dist = _direct(kind, sqrt, q, rows)
    best = np.argsort(dist, kind="stable")[:k]
    return best, dist[best]


class StoreNormCache:
    """Growable norm cache over an append-only vector store, for its scans.

    The brute-force scan path's cache: BSBF, SF's short-window fallback,
    and MBI's scans each own one.  The norms :func:`scan_topk`'s filter
    reads are computed for newly appended vectors on first use (amortised
    O(1) per row via buffer doubling); because the store is append-only,
    rows already cached can never change and no other invalidation exists.

    Attributes:
        metric: The distance metric the cache serves.
        evaluations: Running count of rows scanned through this cache.
    """

    __slots__ = ("metric", "evaluations", "_store", "_kind", "_row_data", "_n", "_lock")

    def __init__(self, store, metric: Metric) -> None:
        self.metric = metric
        self._store = store
        self._kind = _kind_of(metric)
        self._row_data = np.empty(0, dtype=np.float64)
        self._n = 0
        self._lock = threading.Lock()
        self.evaluations = 0

    @property
    def cached_rows(self) -> int:
        """Rows whose per-row data has been computed so far."""
        return self._n

    def _sync(self) -> None:
        # Serialised: queries running on concurrent threads may observe
        # freshly appended rows at the same time, and the grow-then-fill
        # sequence below is not atomic.  Uncontended acquisition costs
        # nanoseconds per query.
        with self._lock:
            n = len(self._store)
            if n <= self._n or self._kind == _KIND_GENERIC:
                self._n = n
                return
            if n > len(self._row_data):
                capacity = max(1024, len(self._row_data))
                while capacity < n:
                    capacity *= 2
                grown = np.empty(capacity, dtype=np.float64)
                grown[: self._n] = self._row_data[: self._n]
                self._row_data = grown
            fresh = self._store.slice(self._n, n)
            self._row_data[self._n : n] = _scan_row_data(self._kind, fresh)
            self._n = n

    def topk(
        self, query: np.ndarray, k: int, positions: range
    ) -> tuple[np.ndarray, np.ndarray]:
        """Exact top-``k`` over store positions ``[lo, hi)``: :func:`scan_topk`
        over the span, with this cache's per-row data for its filter.

        Returns ``(positions, distances)`` sorted ascending by distance,
        ties broken by position.
        """
        lo, hi = positions.start, positions.stop
        if lo >= hi:
            return np.empty(0, dtype=np.int64), np.empty(0, dtype=np.float64)
        self._sync()
        self.evaluations += hi - lo
        row_data = None if self._kind == _KIND_GENERIC else self._row_data[lo:hi]
        best, dists = scan_topk(
            self.metric, query, k, self._store.slice(lo, hi), row_data
        )
        return (best + lo).astype(np.int64, copy=False), dists

    def topk_batch(
        self, queries: np.ndarray, k: int, positions: range
    ) -> list[tuple[np.ndarray, np.ndarray]]:
        """:meth:`topk` for each of many queries over one range."""
        queries = np.asarray(queries, dtype=np.float64)
        return [self.topk(query, k, positions) for query in queries]

    def nbytes(self) -> int:
        """Bytes used by the live per-row data (excluding growth slack)."""
        return int(self._n * self._row_data.itemsize) if self._n else 0
