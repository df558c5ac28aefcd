"""Lloyd's k-means with k-means++ seeding, on NumPy.

The quantization family of ANN indexes (IVFADC, ScaNN — Section 2.1 of the
paper) needs a coarse quantizer; this is the standard tool.  The
implementation is deliberately plain: k-means++ initialisation, vectorised
assignment via the cross-distance expansion (the points' squared norms are
computed once per call), a centroid update that sums every cluster in one
weighted ``bincount``, empty-cluster re-seeding, and a relative-shift stopping
rule.  Each centroid equals ``points[assignments == c].mean(axis=0)`` to
the bit.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class KMeansResult:
    """Outcome of a k-means run.

    Attributes:
        centroids: ``(k, d)`` cluster centers.
        assignments: ``(n,)`` index of each point's nearest centroid.
        inertia: Sum of squared distances to assigned centroids.
        n_iters: Lloyd iterations executed.
    """

    centroids: np.ndarray
    assignments: np.ndarray
    inertia: float
    n_iters: int


def _squared_norms(points: np.ndarray) -> np.ndarray:
    """``(n, 1)`` squared row norms, as the cross-distance kernel has them."""
    return np.einsum("ij,ij->i", points, points)[:, None]


def _sq_distances(
    points: np.ndarray, points_sq: np.ndarray, centroids: np.ndarray
) -> np.ndarray:
    """``squared_euclidean_cross(points, centroids)`` given ``points_sq``.

    The same expression and matrix product as the kernel, so the same
    bits; only the points' norms are reused and the doubling is in place.
    """
    product = points @ centroids.T
    product *= 2.0
    sq = points_sq + np.einsum("ij,ij->i", centroids, centroids)[None, :]
    sq -= product
    np.maximum(sq, 0.0, out=sq)
    return sq


def _cluster_means(
    points: np.ndarray, assignments: np.ndarray, counts: np.ndarray
) -> np.ndarray:
    """``(k, d)`` mean of each cluster's points (rows of empty ones: 0).

    ``points[assignments == c].mean(axis=0)`` adds a cluster's rows to
    ``0.0`` one after another in row order.  One weighted ``bincount``
    over the row-major ``(cluster, column)`` bins adds them in the same
    order.  A single column is the exception: NumPy sums a contiguous
    vector pairwise, so each cluster's column is summed as a contiguous
    slice.
    """
    k, dim = len(counts), points.shape[1]
    if dim == 1:
        column = points[np.argsort(assignments, kind="stable"), 0]
        ends = np.cumsum(counts)
        sums = np.array(
            [[column[end - count : end].sum()] for end, count in zip(ends, counts)]
        )
    else:
        bins = (assignments[:, None] * dim + np.arange(dim)).ravel()
        sums = np.bincount(bins, weights=points.ravel(), minlength=k * dim)
        sums = sums.reshape(k, dim)
    return sums / np.maximum(counts, 1)[:, None]


def kmeans_plus_plus(
    points: np.ndarray, k: int, rng: np.random.Generator
) -> np.ndarray:
    """k-means++ seeding: spread initial centroids by D^2 sampling."""
    n = len(points)
    centroids = np.empty((k, points.shape[1]), dtype=points.dtype)
    first = int(rng.integers(0, n))
    centroids[0] = points[first]
    points_sq = _squared_norms(points)
    closest_sq = _sq_distances(points, points_sq, centroids[:1])[:, 0]
    for i in range(1, k):
        total = float(closest_sq.sum())
        if total <= 0.0:
            # All remaining points coincide with chosen centroids.
            centroids[i:] = points[rng.integers(0, n, size=k - i)]
            break
        probabilities = closest_sq / total
        choice = int(rng.choice(n, p=probabilities))
        centroids[i] = points[choice]
        new_sq = _sq_distances(points, points_sq, centroids[i : i + 1])[:, 0]
        np.minimum(closest_sq, new_sq, out=closest_sq)
    return centroids


def kmeans(
    points: np.ndarray,
    k: int,
    rng: np.random.Generator | None = None,
    max_iters: int = 25,
    tol: float = 1e-4,
) -> KMeansResult:
    """Cluster ``points`` into ``k`` groups with Lloyd's algorithm.

    Args:
        points: ``(n, d)`` data matrix.
        k: Number of clusters, ``1 <= k <= n``.
        rng: Randomness for seeding; defaults to a fixed seed.
        max_iters: Upper bound on Lloyd iterations.
        tol: Stop when the mean squared centroid shift divides the data
            variance by less than this.

    Returns:
        A :class:`KMeansResult`.
    """
    points = np.asarray(points, dtype=np.float64)
    n = len(points)
    if not 1 <= k <= n:
        raise ValueError(f"k must be in [1, {n}], got {k}")
    if rng is None:
        rng = np.random.default_rng(0)

    centroids = kmeans_plus_plus(points, k, rng)
    points_sq = _squared_norms(points)
    scale = float(points.var(axis=0).sum()) or 1.0
    assignments = np.zeros(n, dtype=np.int64)
    n_iters = 0
    for _ in range(max_iters):
        n_iters += 1
        distances = _sq_distances(points, points_sq, centroids)
        assignments = distances.argmin(axis=1)
        counts = np.bincount(assignments, minlength=k)
        new_centroids = _cluster_means(points, assignments, counts)
        empty = counts == 0
        if empty.any():
            # Re-seed every empty cluster at the point farthest from its
            # assigned centroid.
            worst = int(distances[np.arange(n), assignments].argmax())
            new_centroids[empty] = points[worst]
        shift = float(((new_centroids - centroids) ** 2).sum()) / (k * scale)
        centroids = new_centroids
        if shift < tol:
            break
    distances = _sq_distances(points, points_sq, centroids)
    assignments = distances.argmin(axis=1)
    inertia = float(distances[np.arange(n), assignments].sum())
    return KMeansResult(
        centroids=centroids,
        assignments=assignments,
        inertia=inertia,
        n_iters=n_iters,
    )
