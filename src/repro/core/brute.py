"""Brute-force top-k over a contiguous position range.

This is the ``BruteForce`` step of Algorithm 1, shared by the BSBF baseline,
SF's short-window fallback and MBI's scanned blocks.  It runs
:func:`~repro.distances.fused.scan_topk`: one product in the store's dtype
ranks the range, and a shortlist that provably holds the top ``k`` is
reranked by the direct float64 formula, so the answer is exactly the stable
sort of the direct distances over the whole range.

Callers that scan the same store repeatedly (BSBF, MBI, SF) pass their
:class:`~repro.distances.StoreNormCache` so the filter's per-row norms are
computed once per appended row instead of once per query; one-shot callers
omit it and the norms of the range are computed for the call.  The answer is
the same either way: the norms only decide how short the shortlist is.
"""

from __future__ import annotations

import numpy as np

from ..distances.fused import StoreNormCache, scan_topk
from ..distances.metrics import Metric
from ..storage.vector_store import VectorStore


def brute_force_topk(
    store: VectorStore,
    metric: Metric,
    query: np.ndarray,
    k: int,
    positions: range,
    norms: StoreNormCache | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Exact ``k`` nearest vectors to ``query`` among ``positions``.

    Args:
        store: The vector store.
        metric: Distance metric.
        query: Query vector.
        k: Number of neighbors (fewer are returned if the range is smaller).
        positions: Half-open store position range to scan.
        norms: Optional :class:`~repro.distances.StoreNormCache` over
            ``store``; repeated callers pass their cache to amortise the
            per-row norm computation across queries.

    Returns:
        ``(positions, distances)`` sorted ascending by distance, ties broken
        by position.
    """
    lo, hi = positions.start, positions.stop
    if lo >= hi:
        return np.empty(0, dtype=np.int64), np.empty(0, dtype=np.float64)
    if norms is not None:
        return norms.topk(query, k, positions)
    best, dists = scan_topk(metric, query, k, store.slice(lo, hi))
    return (lo + best).astype(np.int64), dists
