"""Brute-force top-k over a contiguous position range, on fused kernels.

This is the ``BruteForce`` step of Algorithm 1, shared by the BSBF baseline
and by MBI when it hits a non-full leaf block.  The scan runs through the
fused norm-expansion kernel of :mod:`repro.distances.fused` — for euclidean
metrics ``|p - q|^2 = |p|^2 - 2 <p, q> + |q|^2`` with the ``sqrt`` applied
only to the final ``k`` survivors — followed by one top-k selection
(:func:`~repro.distances.top_k_smallest`: a stable sort on short ranges,
``argpartition`` on long ones): the fastest exact method for small ranges.

Callers that scan the same store repeatedly (BSBF, MBI's open-leaf path)
pass their :class:`~repro.distances.StoreNormCache` so per-row norms are
computed once per appended row instead of once per query; one-shot callers
omit it and get a transient cache whose per-row arithmetic is bit-identical
(``row_sq_norms`` is computed independently per row), so cached and
uncached scans return bitwise-equal answers.
"""

from __future__ import annotations

import numpy as np

from ..distances.fused import NormCache, StoreNormCache
from ..distances.kernels import top_k_smallest
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
    cache = NormCache(store.slice(lo, hi), metric)
    fused = cache.query(query)
    rank = fused.range(0, hi - lo)
    best = top_k_smallest(rank, k)
    return (lo + best).astype(np.int64), fused.finalize(rank[best])
