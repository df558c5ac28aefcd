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


# Elements (rows * dim) below which every OpenBLAS build runs a gemv on one
# thread: 2304 * GEMM_MULTITHREAD_THRESHOLD, whose default is 4.
GEMV_SERIAL_ELEMENTS = 2304 * 4


def range_dots(points: np.ndarray, lo: int, hi: int, q: np.ndarray) -> np.ndarray:
    """``points[lo:hi] @ q`` with each row's value independent of the range.

    BLAS ``gemv`` kernels take rows four at a time and finish the last
    ``n % 4`` of a call with another kernel that rounds differently, and a
    threaded ``gemv`` splits its rows into one such call per thread.  The
    same row scanned inside two differently shaped ranges (one coalesced
    scan against per-block scans, one shard's rows against the whole
    store's) could therefore get distances a last ulp apart.  Here every
    row goes through the four-row kernel: the range is cut into calls of a
    multiple of four rows, each small enough to stay on one thread
    (:data:`GEMV_SERIAL_ELEMENTS`), and the tail rows are taken from a
    four-row call ending at ``hi``.  The result does not depend on the
    range, the thread count or the host's core count.
    """
    n = hi - lo
    body = n - n % 4
    step = max(4, (GEMV_SERIAL_ELEMENTS - 1) // points.shape[1] // 4 * 4)
    if body <= step:
        dots = points[lo : lo + body] @ q
    else:
        dots = np.empty(body, dtype=np.result_type(points.dtype, q.dtype))
        for start in range(0, body, step):
            stop = min(start + step, body)
            np.matmul(points[lo + start : lo + stop], q, out=dots[start:stop])
    if body == n:
        return dots
    if len(points) >= 4:
        start = max(0, hi - 4)
        tail = (points[start : start + 4] @ q)[lo + body - start : hi - start]
    else:
        tail = points[lo + body : hi] @ q
    return np.concatenate((dots, tail))


def _rank_from_dots(
    kind: str,
    dots: np.ndarray,
    row_data: np.ndarray | None,
    q_sq: float,
    q_norm: float,
) -> np.ndarray:
    """Rank distances of a fused ``kind`` from the rows' dots with the query.

    ``q_sq`` is the query's squared norm (used by the squared kind) and
    ``q_norm`` its norm (used by the angular kind).
    """
    if kind == _KIND_SQ:
        rank = row_data - 2.0 * dots
        rank += q_sq
        np.maximum(rank, 0.0, out=rank)
        return rank
    if kind == _KIND_ANGULAR:
        if q_norm == 0.0:
            return np.ones(len(dots), dtype=RANK_DTYPE)
        sims = dots / (row_data * q_norm)
        return 1.0 - sims
    return -dots


def _row_data_for(kind: str, points: np.ndarray) -> np.ndarray | None:
    if kind == _KIND_SQ:
        return row_sq_norms(points)
    if kind == _KIND_ANGULAR:
        return row_norms(points)
    return None


class FusedQuery:
    """One query vector bound to a cache and a points view.

    Produced by :meth:`NormCache.query` / :meth:`StoreNormCache.query`;
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

    def _rank_rows(
        self,
        rows: np.ndarray,
        row_data: np.ndarray | None,
        dots: np.ndarray | None = None,
    ) -> np.ndarray:
        kind = self._kind
        if kind == _KIND_GENERIC:
            return np.asarray(
                self._owner.metric.batch(self.q, rows), dtype=RANK_DTYPE
            )
        if dots is None:
            dots = rows @ self.q  # float64 via dtype promotion
        return _rank_from_dots(kind, dots, row_data, self.q_sq, self.q_norm)

    def gather(self, idx: np.ndarray) -> np.ndarray:
        """Rank distances from the query to ``points[idx]`` (one fused call)."""
        rows = self.points[idx]
        row_data = self.row_data[idx] if self.row_data is not None else None
        self._owner.evaluations += len(rows)
        return self._rank_rows(rows, row_data)

    def range(self, lo: int, hi: int) -> np.ndarray:
        """Rank distances for the contiguous row range ``[lo, hi)`` (no gather copy).

        A row's value does not depend on ``lo`` or ``hi``
        (:func:`range_dots`), so one scan over adjacent ranges ranks every
        row exactly as separate scans of each range would.
        """
        rows = self.points[lo:hi]
        row_data = self.row_data[lo:hi] if self.row_data is not None else None
        self._owner.evaluations += len(rows)
        dots = None if self._kind == _KIND_GENERIC else range_dots(
            self.points, lo, hi, self.q
        )
        return self._rank_rows(rows, row_data, dots)

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


class StoreNormCache:
    """Growable fused-kernel cache over an append-only vector store.

    The brute-force scan path's cache: BSBF, SF's short-window fallback,
    and MBI's open-leaf/short-window scans each own one.  Per-row data for
    newly appended vectors is computed incrementally on first use (amortised
    O(1) per row via buffer doubling); because the store is append-only,
    rows already cached can never change and no other invalidation exists.

    Attributes:
        metric: The distance metric the cache serves.
        evaluations: Running count of rows ranked through this cache.
    """

    __slots__ = (
        "metric", "evaluations", "_store", "_kind", "_sqrt", "_row_data",
        "_n", "_lock",
    )

    def __init__(self, store, metric: Metric) -> None:
        self.metric = metric
        self._store = store
        self._kind = _kind_of(metric)
        self._sqrt = metric is EUCLIDEAN
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
        # freshly appended rows at the same time, and the grow-then-fill sequence below is not
        # atomic.  Uncontended acquisition costs nanoseconds per query.
        with self._lock:
            n = len(self._store)
            if n <= self._n or self._kind in (_KIND_IP, _KIND_GENERIC):
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
            self._row_data[self._n : n] = (
                row_sq_norms(fresh) if self._kind == _KIND_SQ else row_norms(fresh)
            )
            self._n = n

    def query(self, query: np.ndarray) -> FusedQuery:
        """Bind one query over the store's current contents."""
        self._sync()
        n = len(self._store)
        points = self._store.slice(0, n)
        row_data = (
            self._row_data[:n]
            if self._kind in (_KIND_SQ, _KIND_ANGULAR)
            else None
        )
        return FusedQuery(self, self._kind, self._sqrt, points, row_data, query)

    def topk(
        self, query: np.ndarray, k: int, positions: range
    ) -> tuple[np.ndarray, np.ndarray]:
        """Exact top-``k`` over store positions ``[lo, hi)`` via one fused scan.

        Returns ``(positions, distances)`` sorted ascending by distance,
        ties broken by position — the :func:`~repro.distances.top_k_smallest`
        convention, applied in rank space (valid because the rank transform
        is strictly monotone).  Only the ``k`` survivors are converted back
        to true distances.
        """
        lo, hi = positions.start, positions.stop
        if lo >= hi:
            return np.empty(0, dtype=np.int64), np.empty(0, dtype=np.float64)
        kind = self._kind
        if kind == _KIND_GENERIC:
            fq = self.query(query)
            rank = fq.range(lo, hi)
            best = top_k_smallest(rank, k)
            return (lo + best).astype(np.int64), fq.finalize(rank[best])
        # The same arithmetic as ``self.query(query).range(lo, hi)`` without
        # binding a FusedQuery.  The rows are re-read from the store's live
        # prefix, never its capacity buffer: ``range_dots`` picks its tail
        # kernel by the length of the array it is given.
        self._sync()
        q = np.asarray(query, dtype=np.float64).ravel()
        dots = range_dots(self._store.slice(0, len(self._store)), lo, hi, q)
        self.evaluations += hi - lo
        q_sq = float(q @ q) if kind == _KIND_SQ else 0.0
        q_norm = float(np.sqrt(q @ q)) if kind == _KIND_ANGULAR else 0.0
        rank = _rank_from_dots(kind, dots, self._row_data[lo:hi], q_sq, q_norm)
        best = top_k_smallest(rank, k)
        dists = rank[best]
        if self._sqrt:
            dists = np.sqrt(dists)  # the squared rank is clamped at 0 already
        return (best + lo).astype(np.int64, copy=False), dists

    def topk_batch(
        self, queries: np.ndarray, k: int, positions: range
    ) -> list[tuple[np.ndarray, np.ndarray]]:
        """Exact top-``k`` for many queries over one range, one kernel call.

        The whole batch is answered by a single matrix product (the fused
        cross kernel); per-query results follow the same ordering
        convention as :meth:`topk`.
        """
        lo, hi = positions.start, positions.stop
        m = len(queries)
        empty = (np.empty(0, dtype=np.int64), np.empty(0, dtype=np.float64))
        if lo >= hi:
            return [empty] * m
        self._sync()
        rows = self._store.slice(lo, hi)
        self.evaluations += m * (hi - lo)
        queries = np.asarray(queries, dtype=np.float64)
        if self._kind == _KIND_SQ:
            dots = rows @ queries.T  # (span, m) float64, one dgemm
            rank = self._row_data[lo:hi, None] - 2.0 * dots
            rank += np.einsum("ij,ij->i", queries, queries)[None, :]
            np.maximum(rank, 0.0, out=rank)
        elif self._kind == _KIND_ANGULAR:
            q_norms = np.sqrt(np.einsum("ij,ij->i", queries, queries))
            q_norms = np.where(q_norms == 0.0, 1.0, q_norms)
            sims = (rows @ queries.T) / (
                self._row_data[lo:hi, None] * q_norms[None, :]
            )
            rank = 1.0 - sims
        elif self._kind == _KIND_IP:
            rank = -(rows @ queries.T)
        else:
            rank = np.asarray(
                self.metric.cross(queries, rows), dtype=RANK_DTYPE
            ).T
        out: list[tuple[np.ndarray, np.ndarray]] = []
        for i in range(m):
            column = rank[:, i]
            best = top_k_smallest(column, k)
            dists = column[best]
            if self._sqrt:
                dists = np.sqrt(np.maximum(dists, 0.0))
            out.append(((lo + best).astype(np.int64), dists))
        return out

    def nbytes(self) -> int:
        """Bytes used by the live per-row data (excluding growth slack)."""
        return int(self._n * self._row_data.itemsize) if self._n else 0
