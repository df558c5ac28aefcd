"""Post-filtering — the naive approach the paper's introduction rules out.

    "One way to handle TkNN queries using the above indexing methods is to
    perform kNN search on the entire dataset and filter the results to
    include only those within the time window.  However, this method cannot
    guarantee that the number of search results is k and may even output
    nothing."  (Section 1)

:class:`PostFilterIndex` implements exactly that: an unfiltered kNN search
for ``oversample * k`` candidates over a global graph, then a timestamp
filter.  Unlike SF (which keeps exploring until ``k`` in-window results are
found), post-filtering stops at a fixed candidate count, so short windows
return *fewer than k* results — often none.  The motivation benchmark
measures how often.
"""

from __future__ import annotations

import numpy as np

from ..core.config import SearchParams
from ..core.results import QueryResult, QueryStats, check_query
from ..distances.metrics import Metric
from ..exceptions import ConfigurationError
from ..graph.builder import GraphConfig
from ..graph.search import graph_search
from ..storage.timeline import TimeWindow
from .sf import SFIndex


class PostFilterIndex(SFIndex):
    """kNN-then-filter over a single global graph.

    Shares storage, construction, and the graph with :class:`SFIndex`;
    only the query strategy differs — the search is *not* time-filtered,
    and the window is applied to the fixed-size result afterwards.

    Args:
        dim: Vector dimensionality.
        metric: Distance metric.
        graph_config: Graph construction parameters.
        search_params: Default query-time parameters.
        oversample: How many candidates per requested neighbor the
            unfiltered kNN retrieves before filtering.
        seed: Base seed.
    """

    def __init__(
        self,
        dim: int,
        metric: Metric | str = "euclidean",
        graph_config: GraphConfig | None = None,
        search_params: SearchParams | None = None,
        oversample: int = 4,
        seed: int = 0,
    ) -> None:
        if oversample < 1:
            raise ConfigurationError(
                f"oversample must be >= 1, got {oversample}"
            )
        super().__init__(
            dim,
            metric,
            graph_config=graph_config,
            search_params=search_params,
            seed=seed,
        )
        self.oversample = oversample

    def search(
        self,
        query: np.ndarray,
        k: int,
        t_start: float = float("-inf"),
        t_end: float = float("inf"),
        params: SearchParams | None = None,
        rng: np.random.Generator | None = None,
    ) -> QueryResult:
        """Unfiltered kNN for ``oversample * k``, then timestamp filtering.

        May return fewer than ``k`` results — that deficiency is the point
        of this baseline.
        """
        query = np.asarray(query, dtype=np.float64)
        self._validate(query, k)
        if params is None:
            params = self._search_params
        if rng is None:
            rng = self._rng

        window = TimeWindow(float(t_start), float(t_end))
        positions = self._store.resolve_window(window)
        points = self._store.slice(0, self._graph_size)
        # Entries sampled globally: the search does not know the window.
        entries = rng.integers(0, self._graph_size, params.n_entries)
        outcome = graph_search(
            self._graph,
            points,
            self._metric,
            query,
            self.oversample * k,
            epsilon=params.epsilon,
            max_candidates=params.max_candidates,
            allowed=None,
            entry=entries,
        )
        timestamps = self._store.timestamps[outcome.ids]
        keep = (timestamps >= window.start) & (timestamps < window.end)
        kept_ids = outcome.ids[keep][:k]
        kept_dists = outcome.dists[keep][:k]
        stats = QueryStats(
            blocks_searched=1,
            graph_blocks=1,
            nodes_visited=outcome.stats.nodes_visited,
            distance_evaluations=(
                outcome.stats.distance_evaluations + len(entries)
            ),
            window_size=positions.stop - positions.start,
        )
        return QueryResult(
            positions=kept_ids.astype(np.int64),
            distances=kept_dists,
            timestamps=self._store.timestamps[kept_ids],
            stats=stats,
        )

    def _validate(self, query: np.ndarray, k: int) -> None:
        from ..exceptions import EmptyIndexError

        if len(self._store) == 0:
            raise EmptyIndexError("cannot search an empty index")
        if self._graph is None:
            raise EmptyIndexError(
                "post-filter graph not built; call build() first"
            )
        check_query(query, k, self.dim)
