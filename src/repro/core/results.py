"""Query result and statistics value objects shared by all indexes.

.. _counting-convention:

**The distance-counting convention.**  ``QueryStats.distance_evaluations``
counts every query-to-point distance the metric kernel actually computed
while answering the query, across all strategies, so the number is
comparable between methods and additive across blocks:

* a **brute-force scan** over ``m`` in-window vectors costs exactly ``m``;
* a **graph search** costs its entry-sampling distances (``entry_sample``
  candidates scored to pick start nodes, *not* merely the few entries
  kept), plus the entry re-evaluations inside Algorithm 2, plus one per
  frontier expansion;
* quantized backends (IVF/IVF-PQ) count coarse-cell scoring, ADC table
  construction equivalents, and exact re-ranking distances.

All index classes build their per-block stats through
:meth:`QueryStats.for_brute_force` and :meth:`QueryStats.for_graph_search`
so the convention lives in exactly one place.  Merging partial stats with
:meth:`QueryStats.merged_with` is associative and commutative with
``QueryStats()`` as the identity (property-tested in
``tests/test_properties_stats.py``), which is what makes per-block counters
and whole-query counters mutually consistent.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from ..exceptions import InvalidQueryError


@dataclass(frozen=True)
class QueryStats:
    """Work counters for one TkNN query.

    Attributes:
        blocks_searched: Blocks the query ran in (1 for BSBF/SF, the search
            block set size for MBI).
        graph_blocks: How many of those used graph search (vs brute force).
        nodes_visited: Total graph nodes popped across all block searches.
        distance_evaluations: Total distance computations, including brute
            force scans and entry sampling.
        window_size: Number of stored vectors inside the query time window.
    """

    blocks_searched: int = 0
    graph_blocks: int = 0
    nodes_visited: int = 0
    distance_evaluations: int = 0
    window_size: int = 0

    @classmethod
    def for_brute_force(
        cls, scanned: int, window_size: int = 0
    ) -> "QueryStats":
        """Stats for one exact scan over ``scanned`` vectors.

        This is the single place the brute-force side of the
        :ref:`counting convention <counting-convention>` is encoded: a scan
        computes exactly one distance per vector in range, and visits no
        graph nodes.  ``scanned`` is clamped at zero so degenerate empty
        ranges cannot produce negative counters.
        """
        return cls(
            blocks_searched=1,
            distance_evaluations=max(0, scanned),
            window_size=window_size,
        )

    @classmethod
    def for_graph_search(
        cls,
        nodes_visited: int,
        distance_evaluations: int,
        window_size: int = 0,
    ) -> "QueryStats":
        """Stats for one graph (or other backend) search of a block.

        ``distance_evaluations`` must already include entry-sampling work —
        backends account for it via :func:`repro.core.backends.pick_entries`,
        which reports how many candidates it scored (the
        :ref:`counting convention <counting-convention>`).
        """
        return cls(
            blocks_searched=1,
            graph_blocks=1,
            nodes_visited=nodes_visited,
            distance_evaluations=max(0, distance_evaluations),
            window_size=window_size,
        )

    def merged_with(self, other: "QueryStats") -> "QueryStats":
        """Combine counters from two partial searches of the same query.

        Associative and commutative, with ``QueryStats()`` as the identity:
        additive counters sum and ``window_size`` takes the maximum (every
        partial search of the same query shares one window).
        """
        return QueryStats(
            blocks_searched=self.blocks_searched + other.blocks_searched,
            graph_blocks=self.graph_blocks + other.graph_blocks,
            nodes_visited=self.nodes_visited + other.nodes_visited,
            distance_evaluations=(
                self.distance_evaluations + other.distance_evaluations
            ),
            window_size=max(self.window_size, other.window_size),
        )


@dataclass(frozen=True)
class QueryResult:
    """Answer to a TkNN query.

    Results are sorted ascending by distance; ties broken by position.
    Fewer than ``k`` entries are returned when the time window holds fewer
    than ``k`` vectors (or an approximate search missed some).

    Attributes:
        positions: Store positions of the result vectors.
        distances: Distances to the query vector, aligned with positions.
        timestamps: Timestamps of the result vectors.
        stats: Work counters accumulated while answering.
    """

    positions: np.ndarray
    distances: np.ndarray
    timestamps: np.ndarray
    stats: QueryStats = field(default_factory=QueryStats)

    def __len__(self) -> int:
        return len(self.positions)

    @classmethod
    def empty(cls, stats: QueryStats | None = None) -> "QueryResult":
        """A result with no matches."""
        return cls(
            positions=np.empty(0, dtype=np.int64),
            distances=np.empty(0, dtype=np.float64),
            timestamps=np.empty(0, dtype=np.float64),
            stats=stats or QueryStats(),
        )


def check_query(query: np.ndarray, k: int, dim: int) -> None:
    """Raise :class:`~repro.exceptions.InvalidQueryError` on a malformed query.

    ``k`` must be a Python or NumPy integer (not a bool) and at least 1, and
    ``query`` a vector of dimension ``dim`` with finite components: a NaN or
    infinite component makes every distance NaN or infinite, and the scan
    would answer with nothing.
    """
    if isinstance(k, bool) or not isinstance(k, (int, np.integer)):
        raise InvalidQueryError(f"k must be an integer, got {k!r}")
    if k < 1:
        raise InvalidQueryError(f"k must be >= 1, got {k}")
    if query.ndim != 1 or query.shape[0] != dim:
        raise InvalidQueryError(
            f"query must be a vector of dimension {dim}, got shape {query.shape}"
        )
    # q·q is finite only if every component is (squares cannot cancel), so
    # the slower exact test runs only when it is not, e.g. on overflow.
    if not math.isfinite(query.dot(query)) and not np.isfinite(query).all():
        raise InvalidQueryError("query contains non-finite components")


def merge_partial_results(
    partials: list[tuple[np.ndarray, np.ndarray]], k: int
) -> tuple[np.ndarray, np.ndarray]:
    """Merge per-block ``(positions, distances)`` pairs into the best ``k``.

    This is Algorithm 4's final step: the union of block results reduced to
    the ``k`` nearest, ties broken by position for determinism.
    """
    if not partials:
        return np.empty(0, dtype=np.int64), np.empty(0, dtype=np.float64)
    if len(partials) == 1:
        positions, distances = partials[0]
    else:
        positions = np.concatenate([p for p, _ in partials])
        distances = np.concatenate([d for _, d in partials])
    order = np.lexsort((positions, distances))[:k]
    return positions[order], distances[order]
