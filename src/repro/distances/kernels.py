"""Low-level vectorised distance kernels.

Every kernel follows the same convention:

* ``pairwise(u, v)`` — distance between two 1-D vectors, returns a float;
* ``batch(query, points)`` — distances from one 1-D ``query`` to every row of
  a 2-D ``points`` matrix, returns a 1-D ``float64`` array;
* ``cross(a, b)`` — all-pairs distances between rows of ``a`` and rows of
  ``b``, returns a 2-D ``float64`` array of shape ``(len(a), len(b))``.

The kernels are the single hottest code path in the library: NNDescent,
graph search, and the brute-force baselines all funnel through them, so they
are written to stay inside NumPy for the entire computation.
"""

from __future__ import annotations

import numpy as np


def euclidean_pairwise(u: np.ndarray, v: np.ndarray) -> float:
    """Euclidean (L2) distance between two vectors."""
    diff = u - v
    return float(np.sqrt(np.dot(diff, diff)))


def euclidean_batch(query: np.ndarray, points: np.ndarray) -> np.ndarray:
    """L2 distances from ``query`` to every row of ``points``."""
    diff = points - query
    return np.sqrt(np.einsum("ij,ij->i", diff, diff))


def euclidean_cross(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """All-pairs L2 distances between rows of ``a`` and rows of ``b``.

    Uses the expansion ``|a-b|^2 = |a|^2 - 2 a.b + |b|^2`` so the dominant
    cost is a single matrix multiply; negative values produced by floating
    point cancellation are clipped before the square root.
    """
    a_sq = np.einsum("ij,ij->i", a, a)[:, None]
    b_sq = np.einsum("ij,ij->i", b, b)[None, :]
    sq = a_sq + b_sq - 2.0 * (a @ b.T)
    np.maximum(sq, 0.0, out=sq)
    return np.sqrt(sq)


def squared_euclidean_pairwise(u: np.ndarray, v: np.ndarray) -> float:
    """Squared L2 distance between two vectors (monotone with L2)."""
    diff = u - v
    return float(np.dot(diff, diff))


def squared_euclidean_batch(query: np.ndarray, points: np.ndarray) -> np.ndarray:
    """Squared L2 distances from ``query`` to every row of ``points``."""
    diff = points - query
    return np.einsum("ij,ij->i", diff, diff)


def squared_euclidean_cross(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """All-pairs squared L2 distances between rows of ``a`` and ``b``."""
    a_sq = np.einsum("ij,ij->i", a, a)[:, None]
    b_sq = np.einsum("ij,ij->i", b, b)[None, :]
    sq = a_sq + b_sq - 2.0 * (a @ b.T)
    np.maximum(sq, 0.0, out=sq)
    return sq


def _norms(points: np.ndarray) -> np.ndarray:
    """Row norms with zeros replaced by 1 so zero vectors don't divide by 0."""
    norms = np.sqrt(np.einsum("ij,ij->i", points, points))
    return np.where(norms == 0.0, 1.0, norms)


def angular_pairwise(u: np.ndarray, v: np.ndarray) -> float:
    """Angular (cosine) distance ``1 - cos(u, v)`` between two vectors.

    Zero vectors are treated as having cosine similarity 0 with everything,
    i.e. distance 1.
    """
    nu = np.sqrt(np.dot(u, u))
    nv = np.sqrt(np.dot(v, v))
    if nu == 0.0 or nv == 0.0:
        return 1.0
    return float(1.0 - np.dot(u, v) / (nu * nv))


def angular_batch(query: np.ndarray, points: np.ndarray) -> np.ndarray:
    """Angular distances from ``query`` to every row of ``points``."""
    nq = np.sqrt(np.dot(query, query))
    if nq == 0.0:
        return np.ones(len(points), dtype=np.float64)
    sims = (points @ query) / (_norms(points) * nq)
    return 1.0 - sims


def angular_cross(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """All-pairs angular distances between rows of ``a`` and rows of ``b``."""
    sims = (a @ b.T) / (_norms(a)[:, None] * _norms(b)[None, :])
    return 1.0 - sims


def inner_product_pairwise(u: np.ndarray, v: np.ndarray) -> float:
    """Negative inner product, so smaller means more similar."""
    return float(-np.dot(u, v))


def inner_product_batch(query: np.ndarray, points: np.ndarray) -> np.ndarray:
    """Negative inner products from ``query`` to every row of ``points``."""
    return -(points @ query)


def inner_product_cross(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """All-pairs negative inner products between rows of ``a`` and ``b``."""
    return -(a @ b.T)


def euclidean_rowwise(queries: np.ndarray, candidates: np.ndarray) -> np.ndarray:
    """L2 distances from ``queries[i]`` to each of ``candidates[i]``.

    Args:
        queries: ``(m, d)`` matrix of query vectors.
        candidates: ``(m, C, d)`` tensor; row ``i`` holds the candidate
            vectors compared against ``queries[i]``.

    Returns:
        ``(m, C)`` distance matrix.
    """
    diff = candidates - queries[:, None, :]
    return np.sqrt(np.einsum("ijk,ijk->ij", diff, diff))


def squared_euclidean_rowwise(
    queries: np.ndarray, candidates: np.ndarray
) -> np.ndarray:
    """Squared L2 variant of :func:`euclidean_rowwise`."""
    diff = candidates - queries[:, None, :]
    return np.einsum("ijk,ijk->ij", diff, diff)


def angular_rowwise(queries: np.ndarray, candidates: np.ndarray) -> np.ndarray:
    """Angular variant of :func:`euclidean_rowwise`."""
    q_norms = np.sqrt(np.einsum("ij,ij->i", queries, queries))
    q_norms = np.where(q_norms == 0.0, 1.0, q_norms)
    c_norms = np.sqrt(np.einsum("ijk,ijk->ij", candidates, candidates))
    c_norms = np.where(c_norms == 0.0, 1.0, c_norms)
    sims = np.einsum("ijk,ik->ij", candidates, queries)
    return 1.0 - sims / (c_norms * q_norms[:, None])


def inner_product_rowwise(queries: np.ndarray, candidates: np.ndarray) -> np.ndarray:
    """Negative-inner-product variant of :func:`euclidean_rowwise`."""
    return -np.einsum("ijk,ik->ij", candidates, queries)


#: Spans of at most this many values are ranked by one stable sort; above
#: it ``argpartition`` wins.  On a 2-core x86 VM the two break even between
#: 448 and 640 values at ``k`` of 10 to 100; at 20 values the sort takes a
#: fifth of the partition path's time (it is one NumPy call, not seven).
SORT_CUTOFF = 512


def top_k_smallest(values: np.ndarray, k: int) -> np.ndarray:
    """Indices of the ``k`` smallest entries of ``values``, sorted ascending.

    Ties are broken by index, so the result is exactly
    ``np.argsort(values, kind="stable")[:k]``.  Spans of at most
    :data:`SORT_CUTOFF` values, and any ``k >= len(values)``, are ranked that
    way; longer spans use ``argpartition`` so the cost is
    ``O(n + k log k)`` rather than a full sort.

    ``values`` must be free of NaN (the partition path orders NaN
    differently from the sort).  Every caller in the library ranks
    distances between finite vectors: queries are checked finite before
    a search and stored rows when they are appended.
    """
    n = len(values)
    if n <= SORT_CUTOFF or k >= n:
        return np.argsort(values, kind="stable")[:k]
    part = np.argpartition(values, k - 1)[:k]
    kth = values[part].max()
    if np.count_nonzero(values <= kth) == k:
        # No tie group crosses the cut: ``part`` is the answer's set.
        return part[np.lexsort((part, values[part]))]
    # argpartition breaks ties at the k-th value arbitrarily; re-select the
    # tie group by index so the result is deterministic.
    below = np.nonzero(values < kth)[0]
    ties = np.nonzero(values == kth)[0][: k - len(below)]
    chosen = np.concatenate([below, ties])
    order = np.lexsort((chosen, values[chosen]))
    return chosen[order]
