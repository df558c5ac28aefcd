"""Binary Search and Brute-Force (BSBF) — the paper's Algorithm 1.

BSBF's "index" is just the timestamp-sorted store: a query binary-searches
the window boundaries (``O(log n)``) and scans every vector inside the
window exactly (``O(m log k)``; here a fused norm-expansion scan plus
``argpartition``, with per-row squared norms amortised across queries by a
:class:`~repro.distances.StoreNormCache`).  It is exact, fast for short
windows, and degrades linearly as the window grows — one of the two
regimes MBI interpolates between.
"""

from __future__ import annotations

import numpy as np

from ..distances.fused import StoreNormCache
from ..distances.metrics import Metric, resolve_metric
from ..exceptions import EmptyIndexError, InvalidQueryError
from ..observability.metrics import get_registry
from ..storage.timeline import TimeWindow
from ..storage.vector_store import VectorStore
from ..core.brute import brute_force_topk
from ..core.results import QueryResult, QueryStats, check_query

_METRICS = get_registry()
_QUERIES = _METRICS.counter(
    "baseline_bsbf_queries_total", "TkNN queries answered by the BSBF baseline"
)
_DIST_EVALS = _METRICS.counter(
    "baseline_bsbf_distance_evals_total",
    "Distance computations spent scanning BSBF query windows",
)


class BSBFIndex:
    """Exact TkNN via binary search plus brute force.

    Args:
        dim: Dimensionality of indexed vectors.
        metric: Distance metric (name or :class:`Metric`).
    """

    def __init__(self, dim: int, metric: Metric | str = "euclidean") -> None:
        self._metric = resolve_metric(metric)
        self._store = VectorStore(dim)
        # Per-row norms for the fused scan, computed once per appended row
        # (the store is append-only, so the cache never invalidates).
        self._scan = StoreNormCache(self._store, self._metric)

    @property
    def dim(self) -> int:
        """Dimensionality of indexed vectors."""
        return self._store.dim

    @property
    def metric(self) -> Metric:
        """The index's distance metric."""
        return self._metric

    @property
    def store(self) -> VectorStore:
        """The underlying vector store."""
        return self._store

    def __len__(self) -> int:
        return len(self._store)

    def insert(self, vector: np.ndarray, timestamp: float) -> int:
        """Append one timestamped vector; O(1) amortised."""
        return self._store.append(vector, timestamp)

    def extend(self, vectors: np.ndarray, timestamps: np.ndarray) -> range:
        """Append a timestamp-sorted batch."""
        return self._store.extend(vectors, timestamps)

    def memory_usage(self) -> dict[str, int]:
        """Bytes used: the sorted store is the entire index."""
        vectors = self._store.nbytes()
        return {"vectors": vectors, "graphs": 0, "total": vectors}

    def search(
        self,
        query: np.ndarray,
        k: int,
        t_start: float = float("-inf"),
        t_end: float = float("inf"),
    ) -> QueryResult:
        """Answer a TkNN query exactly (Algorithm 1).

        Raises:
            EmptyIndexError: If the index holds no vectors.
            InvalidQueryError: If ``k`` is not an integer ``>= 1``, the
                window is inverted, or the query is not a finite vector of
                the index's dimension.
        """
        query = np.asarray(query, dtype=np.float64)
        if len(self._store) == 0:
            raise EmptyIndexError("cannot search an empty index")
        check_query(query, k, self.dim)
        window = TimeWindow(float(t_start), float(t_end))
        positions = self._store.resolve_window(window)
        found_positions, found_dists = brute_force_topk(
            self._store, self._metric, query, k, positions, norms=self._scan
        )
        span = positions.stop - positions.start
        stats = QueryStats.for_brute_force(span, window_size=span)
        _QUERIES.inc()
        _DIST_EVALS.inc(span)
        return QueryResult(
            positions=found_positions,
            distances=found_dists,
            timestamps=self._store.timestamps[found_positions],
            stats=stats,
        )

    def search_batch(
        self,
        queries: np.ndarray,
        k: int,
        t_start: float = float("-inf"),
        t_end: float = float("inf"),
    ) -> list[QueryResult]:
        """Answer many TkNN queries sharing one time window, exactly."""
        queries = np.asarray(queries, dtype=np.float64)
        if queries.ndim != 2 or queries.shape[1] != self.dim:
            raise InvalidQueryError(
                f"queries must be a (m, {self.dim}) matrix, "
                f"got shape {queries.shape}"
            )
        return [self.search(query, k, t_start, t_end) for query in queries]
