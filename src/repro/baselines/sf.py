"""Search and Filtering (SF) — one global graph, time filtering at query time.

SF builds a single graph index over the whole database, ignoring timestamps,
and answers TkNN queries by running the time-filtered graph search
(Algorithm 2) over it: exploration continues until ``k`` in-window results
are found.  It is fast for long windows and degrades badly for short ones,
because almost everything it visits gets filtered out — the second regime
MBI interpolates between.

Unlike MBI, SF as described in the paper is a *static* index: it has no
incremental story, so :meth:`SFIndex.build` (re)builds the graph from the
entire store.  An :meth:`insert` that marks the graph stale is provided for
the scalability benches, which rebuild at measurement points.
"""

from __future__ import annotations

import time

import numpy as np

from ..distances.fused import NormCache, StoreNormCache
from ..distances.metrics import Metric, resolve_metric
from ..exceptions import EmptyIndexError, InvalidQueryError
from ..graph.builder import GraphConfig, build_knn_graph
from ..graph.knn_graph import KnnGraph
from ..graph.search import graph_search
from ..observability.metrics import get_registry
from ..storage.timeline import TimeWindow
from ..storage.vector_store import VectorStore
from ..core.config import SearchParams
from ..core.results import QueryResult, QueryStats, check_query

_METRICS = get_registry()
_QUERIES = _METRICS.counter(
    "baseline_sf_queries_total", "TkNN queries answered by the SF baseline"
)
_DIST_EVALS = _METRICS.counter(
    "baseline_sf_distance_evals_total",
    "Distance computations spent answering SF queries",
)
_BUILD_SECONDS = _METRICS.counter(
    "baseline_sf_build_seconds_total", "Seconds spent (re)building SF's graph"
)

# SF scans a window of at most this many vectors exactly when
# ``SearchParams.brute_force_threshold`` is ``None`` (MBI's block planner
# has no counterpart here: SF has one global graph).
BRUTE_FORCE_THRESHOLD = 64


class SFIndex:
    """Approximate TkNN via a single global proximity graph.

    Args:
        dim: Dimensionality of indexed vectors.
        metric: Distance metric (name or :class:`Metric`).
        graph_config: Graph construction parameters.
        search_params: Default query-time parameters.
        seed: Base seed for graph construction and entry sampling.
    """

    def __init__(
        self,
        dim: int,
        metric: Metric | str = "euclidean",
        graph_config: GraphConfig | None = None,
        search_params: SearchParams | None = None,
        seed: int = 0,
    ) -> None:
        self._metric = resolve_metric(metric)
        self._graph_config = graph_config or GraphConfig()
        self._search_params = search_params or SearchParams()
        self._seed = seed
        self._store = VectorStore(dim)
        self._graph: KnnGraph | None = None
        self._graph_size = 0  # store length the graph was built for
        # Snapshot norm cache over the graph's build-time span; replaced
        # wholesale on every (re)build, so it can never describe stale data.
        self._norms: NormCache | None = None
        # Growable cache for the short-window brute-force fallback.
        self._scan = StoreNormCache(self._store, self._metric)
        self._rng = np.random.default_rng(seed)
        self._total_build_seconds = 0.0
        self._total_distance_evaluations = 0

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

    @property
    def is_stale(self) -> bool:
        """Whether vectors were added since the graph was last built."""
        return self._graph_size != len(self._store)

    @property
    def total_build_seconds(self) -> float:
        """Cumulative wall-clock seconds spent building the graph."""
        return self._total_build_seconds

    @property
    def total_distance_evaluations(self) -> int:
        """Cumulative distance computations spent building the graph."""
        return self._total_distance_evaluations

    def insert(self, vector: np.ndarray, timestamp: float) -> int:
        """Append one vector; the graph becomes stale until :meth:`build`."""
        return self._store.append(vector, timestamp)

    def extend(self, vectors: np.ndarray, timestamps: np.ndarray) -> range:
        """Append a timestamp-sorted batch; graph becomes stale."""
        return self._store.extend(vectors, timestamps)

    def build(self) -> None:
        """(Re)build the global graph over everything currently stored."""
        if len(self._store) < 2:
            raise EmptyIndexError("need at least 2 vectors to build SF's graph")
        points = self._store.slice(0, len(self._store))
        rng = np.random.default_rng([self._seed, len(self._store)])
        started = time.perf_counter()
        report = build_knn_graph(points, self._metric, self._graph_config, rng)
        elapsed = time.perf_counter() - started
        self._total_build_seconds += elapsed
        self._total_distance_evaluations += report.distance_evaluations
        _BUILD_SECONDS.inc(elapsed)
        self._graph = report.graph
        self._graph_size = len(self._store)
        # retain_points=False: the store buffer is reallocated as it grows;
        # each search re-resolves a fresh slice over the built span.
        self._norms = NormCache(points, self._metric, retain_points=False)

    def memory_usage(self) -> dict[str, int]:
        """Bytes used: raw vectors plus the single global graph."""
        vectors = self._store.nbytes()
        graphs = self._graph.nbytes() if self._graph is not None else 0
        return {"vectors": vectors, "graphs": graphs, "total": vectors + graphs}

    def search(
        self,
        query: np.ndarray,
        k: int,
        t_start: float = float("-inf"),
        t_end: float = float("inf"),
        params: SearchParams | None = None,
        rng: np.random.Generator | None = None,
    ) -> QueryResult:
        """Answer a TkNN query with filtered graph search (Algorithm 2).

        Raises:
            EmptyIndexError: If the index is empty or the graph was never
                built (or is stale with no coverage at all).
            InvalidQueryError: On malformed queries.
        """
        query = np.asarray(query, dtype=np.float64)
        if len(self._store) == 0:
            raise EmptyIndexError("cannot search an empty index")
        if self._graph is None:
            raise EmptyIndexError("SF graph not built; call build() first")
        check_query(query, k, self.dim)
        if params is None:
            params = self._search_params
        if rng is None:
            rng = self._rng

        window = TimeWindow(float(t_start), float(t_end))
        positions = self._store.resolve_window(window)
        # The graph only covers vectors present at build time.
        allowed = range(positions.start, min(positions.stop, self._graph_size))
        _QUERIES.inc()
        if allowed.start >= allowed.stop:
            return QueryResult.empty(
                QueryStats(window_size=positions.stop - positions.start)
            )
        span = allowed.stop - allowed.start
        threshold = params.brute_force_threshold
        if span <= (BRUTE_FORCE_THRESHOLD if threshold is None else threshold):
            # A tiny window is cheaper (and exact) via a direct scan; graph
            # search under a near-empty filter can otherwise drop results.
            from ..core.brute import brute_force_topk

            found_positions, found_dists = brute_force_topk(
                self._store, self._metric, query, k, allowed, norms=self._scan
            )
            _DIST_EVALS.inc(span)
            return QueryResult(
                positions=found_positions,
                distances=found_dists,
                timestamps=self._store.timestamps[found_positions],
                stats=QueryStats.for_brute_force(
                    span, window_size=positions.stop - positions.start
                ),
            )
        points = self._store.slice(0, self._graph_size)
        entries, entry_evals = self._pick_entries(
            points, query, allowed, params, rng
        )
        outcome = graph_search(
            self._graph,
            points,
            self._metric,
            query,
            k,
            epsilon=params.epsilon,
            max_candidates=params.max_candidates,
            allowed=allowed,
            entry=entries,
            norms=self._norms,
            beam_width=params.beam_width,
        )
        stats = QueryStats.for_graph_search(
            nodes_visited=outcome.stats.nodes_visited,
            distance_evaluations=(
                outcome.stats.distance_evaluations + entry_evals
            ),
            window_size=positions.stop - positions.start,
        )
        _DIST_EVALS.inc(stats.distance_evaluations)
        return QueryResult(
            positions=outcome.ids.astype(np.int64),
            distances=outcome.dists,
            timestamps=self._store.timestamps[outcome.ids],
            stats=stats,
        )

    def search_batch(
        self,
        queries: np.ndarray,
        k: int,
        t_start: float = float("-inf"),
        t_end: float = float("inf"),
        params: SearchParams | None = None,
        rng: np.random.Generator | None = None,
    ) -> list[QueryResult]:
        """Answer many TkNN queries sharing one time window, in input order.

        Each query's entry-sampling generator is seeded from ``rng`` up
        front, the same per-query seeding as
        :meth:`repro.core.MultiLevelBlockIndex.search_batch`.
        """
        queries = np.asarray(queries, dtype=np.float64)
        if queries.ndim != 2 or queries.shape[1] != self.dim:
            raise InvalidQueryError(
                f"queries must be a (m, {self.dim}) matrix, "
                f"got shape {queries.shape}"
            )
        if rng is None:
            rng = self._rng
        seeds = rng.integers(0, 2**63 - 1, size=len(queries))
        return [
            self.search(
                query,
                k,
                t_start,
                t_end,
                params=params,
                rng=np.random.default_rng(int(seed)),
            )
            for query, seed in zip(queries, seeds)
        ]

    def _pick_entries(
        self,
        points: np.ndarray,
        query: np.ndarray,
        allowed: range,
        params: SearchParams,
        rng: np.random.Generator,
    ) -> tuple[np.ndarray, int]:
        """Best of a random in-window sample (same strategy as MBI blocks).

        Returns ``(entries, evaluations)`` so the caller can charge the
        sampling work per the counting convention in
        :mod:`repro.core.results`.
        """
        span = allowed.stop - allowed.start
        sample_size = min(params.entry_sample, span)
        if sample_size <= 0:
            return np.zeros(1, dtype=np.int64), 0
        candidates = allowed.start + rng.choice(span, sample_size, replace=False)
        if self._norms is not None:
            scores = self._norms.query(query, points=points).gather(candidates)
        else:
            scores = self._metric.batch(query, points[candidates])
        best = np.argsort(scores)[: params.n_entries]
        return candidates[best], int(sample_size)
