"""Bit-parity of the two index-build kernels against their plain forms.

`_merge_candidates` (NNDescent) de-duplicates before it computes any
distance, and `kmeans` sums every cluster in one pass.  Both must give
exactly what the straightforward versions below give — same ids, same
distance bytes, same centroids, same iteration counts — because a graph
or codebook that moves by one ulp moves answers.  The reference
functions are the kernels as they stood before that rework, kept here
verbatim as oracles.
"""

from __future__ import annotations

from unittest import mock

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.distances import resolve_metric
from repro.distances.kernels import squared_euclidean_cross
from repro.distances.metrics import Metric
from repro.graph import NNDescentParams, nn_descent
from repro.graph import nndescent
from repro.graph.nndescent import _merge_candidates
from repro.quantization import kmeans, kmeans_plus_plus
from repro.quantization.pq import PQParams, ProductQuantizer

METRICS = ("euclidean", "sqeuclidean", "angular", "ip")


# --------------------------------------------------------------- oracles


def reference_merge_candidates(
    node_ids, current_ids, current_dists, candidate_ids, points, metric
):
    """Computes every candidate's distance, then discards the repeats."""
    k = current_ids.shape[1]
    cand_dists = metric.rowwise(points[node_ids], points[candidate_ids])
    all_ids = np.concatenate([current_ids, candidate_ids], axis=1)
    all_dists = np.concatenate([current_dists, cand_dists], axis=1)

    all_dists[all_ids == node_ids[:, None]] = np.inf

    id_order = np.argsort(all_ids, axis=1, kind="stable")
    sorted_ids = np.take_along_axis(all_ids, id_order, axis=1)
    dup = np.zeros_like(sorted_ids, dtype=bool)
    dup[:, 1:] = sorted_ids[:, 1:] == sorted_ids[:, :-1]
    dup_flat = np.zeros_like(dup)
    np.put_along_axis(dup_flat, id_order, dup, axis=1)
    all_dists[dup_flat] = np.inf

    part = np.argpartition(all_dists, k - 1, axis=1)[:, :k]
    part_dists = np.take_along_axis(all_dists, part, axis=1)
    part_ids = np.take_along_axis(all_ids, part, axis=1)
    order = np.lexsort((part_ids, part_dists), axis=1)
    new_dists = np.take_along_axis(part_dists, order, axis=1)
    new_ids = np.take_along_axis(part_ids, order, axis=1)

    changed = int(np.count_nonzero(new_ids != current_ids))
    return new_ids, new_dists, changed


def reference_kmeans_plus_plus(points, k, rng):
    """k-means++ seeding through the cross-distance kernel."""
    n = len(points)
    centroids = np.empty((k, points.shape[1]), dtype=points.dtype)
    first = int(rng.integers(0, n))
    centroids[0] = points[first]
    closest_sq = squared_euclidean_cross(points, centroids[:1])[:, 0]
    for i in range(1, k):
        total = float(closest_sq.sum())
        if total <= 0.0:
            centroids[i:] = points[rng.integers(0, n, size=k - i)]
            break
        probabilities = closest_sq / total
        choice = int(rng.choice(n, p=probabilities))
        centroids[i] = points[choice]
        new_sq = squared_euclidean_cross(points, centroids[i : i + 1])[:, 0]
        np.minimum(closest_sq, new_sq, out=closest_sq)
    return centroids


def reference_kmeans(points, k, rng=None, max_iters=25, tol=1e-4):
    """Lloyd's algorithm with one ``mean`` per cluster per iteration."""
    points = np.asarray(points, dtype=np.float64)
    n = len(points)
    if rng is None:
        rng = np.random.default_rng(0)
    centroids = reference_kmeans_plus_plus(points, k, rng)
    scale = float(points.var(axis=0).sum()) or 1.0
    n_iters = 0
    for _ in range(max_iters):
        n_iters += 1
        distances = squared_euclidean_cross(points, centroids)
        assignments = distances.argmin(axis=1)
        new_centroids = centroids.copy()
        counts = np.bincount(assignments, minlength=k)
        for cluster in range(k):
            if counts[cluster] == 0:
                worst = int(distances[np.arange(n), assignments].argmax())
                new_centroids[cluster] = points[worst]
                continue
            new_centroids[cluster] = points[assignments == cluster].mean(axis=0)
        shift = float(((new_centroids - centroids) ** 2).sum()) / (k * scale)
        centroids = new_centroids
        if shift < tol:
            break
    distances = squared_euclidean_cross(points, centroids)
    assignments = distances.argmin(axis=1)
    inertia = float(distances[np.arange(n), assignments].sum())
    return centroids, assignments, inertia, n_iters


def same_bytes(a: np.ndarray, b: np.ndarray) -> bool:
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


# ----------------------------------------------------------- merge inputs


@st.composite
def merge_case(draw):
    """A chunk's lists and candidates, with the awkward cases made likely.

    Points come from a small integer grid so exact distance ties occur;
    current lists may repeat ids and hold the node itself; ``k`` reaches
    ``n - 1``, where the distinct pool can be smaller than the list.
    """
    n = draw(st.integers(2, 40))
    k = draw(st.one_of(st.integers(1, min(6, n - 1)), st.just(n - 1)))
    dim = draw(st.integers(1, 9))
    dtype = draw(st.sampled_from([np.float32, np.float64]))
    metric = resolve_metric(draw(st.sampled_from(METRICS)))
    seed = draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    grid = draw(st.sampled_from([2, 5, 1000]))
    points = (rng.integers(-grid, grid + 1, size=(n, dim)) / grid).astype(dtype)
    m = draw(st.integers(1, n))
    chunk = np.sort(rng.choice(n, size=m, replace=False))
    current = rng.integers(0, n, size=(m, k))
    current_dists = metric.rowwise(points[chunk], points[current])
    order = np.lexsort((current, current_dists), axis=1)
    current = np.take_along_axis(current, order, axis=1)
    current_dists = np.take_along_axis(current_dists, order, axis=1)
    width = draw(st.integers(1, 3 * n))
    candidates = rng.integers(0, n, size=(m, width))
    # Pad some rows with the node's own id, as the RP-tree refinement does.
    pad = rng.random(m) < 0.3
    candidates[pad, width // 2 :] = chunk[pad, None]
    return chunk, current, current_dists, candidates, points, metric


class TestMergeParity:
    @given(merge_case())
    @settings(max_examples=300, deadline=None)
    def test_merge_matches_the_reference_bytes(self, case):
        chunk, current, current_dists, candidates, points, metric = case
        got = _merge_candidates(
            chunk, current.copy(), current_dists.copy(), candidates, points, metric
        )
        want = reference_merge_candidates(
            chunk, current.copy(), current_dists.copy(), candidates, points, metric
        )
        assert same_bytes(got[0], want[0])
        assert same_bytes(got[1], want[1])
        assert got[2] == want[2]

    @given(merge_case(), st.data())
    @settings(max_examples=150, deadline=None)
    def test_merge_is_row_local_over_any_split(self, case, data):
        """Merging a chunk equals merging any split of it and concatenating.

        This is what lets the merge work through a chunk in slabs.
        """
        chunk, current, current_dists, candidates, points, metric = case
        m = len(chunk)
        cuts = sorted(
            data.draw(st.sets(st.integers(1, max(1, m - 1)), max_size=4))
        )
        bounds = [0, *[c for c in cuts if c < m], m]
        whole = _merge_candidates(
            chunk, current, current_dists, candidates, points, metric
        )
        parts = [
            _merge_candidates(
                chunk[a:b], current[a:b], current_dists[a:b],
                candidates[a:b], points, metric,
            )
            for a, b in zip(bounds[:-1], bounds[1:])
        ]
        assert same_bytes(whole[0], np.concatenate([p[0] for p in parts]))
        assert same_bytes(whole[1], np.concatenate([p[1] for p in parts]))
        assert whole[2] == sum(p[2] for p in parts)

    def test_slabs_of_a_long_chunk_match_the_reference(self):
        rng = np.random.default_rng(5)
        n, k = 700, 8
        points = rng.standard_normal((n, 12)).astype(np.float32)
        metric = resolve_metric("euclidean")
        ids, dists = nndescent._random_init(points, k, metric, rng)
        chunk = np.arange(n)
        candidates = ids[ids[chunk]].reshape(n, -1)
        got = _merge_candidates(chunk, ids, dists, candidates, points, metric)
        want = reference_merge_candidates(
            chunk, ids, dists, candidates, points, metric
        )
        assert len(chunk) > nndescent._SLAB_ROWS
        assert same_bytes(got[0], want[0]) and same_bytes(got[1], want[1])
        assert got[2] == want[2]


# ------------------------------------------------------------ end to end


def counting(metric: Metric) -> tuple[Metric, list[int]]:
    """``metric`` whose rowwise kernel tallies the distances it returns."""
    tally: list[int] = []

    def rowwise(queries, candidates):
        out = metric.rowwise(queries, candidates)
        tally.append(out.size)
        return out

    return (
        Metric(
            name=metric.name,
            pairwise=metric.pairwise,
            batch=metric.batch,
            cross=metric.cross,
            rowwise=rowwise,
        ),
        tally,
    )


def reference_merge_counted(
    node_ids, current_ids, current_dists, candidate_ids, points, metric
):
    new_ids, new_dists, _ = reference_merge_candidates(
        node_ids, current_ids, current_dists, candidate_ids, points, metric
    )
    return new_ids, new_dists, candidate_ids.size


#: A metric without a rowwise kernel: the merge goes through the generic one.
MANHATTAN = Metric(
    name="manhattan-parity",
    pairwise=lambda u, v: float(np.abs(u - v).sum()),
    batch=lambda q, pts: np.abs(pts - q).sum(axis=1),
    cross=lambda a, b: np.abs(a[:, None, :] - b[None, :, :]).sum(axis=2),
)


class TestNNDescentParity:
    CASES = [
        # (n, dim, metric, params)
        (600, 16, "euclidean", NNDescentParams(n_neighbors=10)),
        (900, 8, "angular", NNDescentParams(n_neighbors=12, chunk_size=200)),
        (400, 5, "ip", NNDescentParams(n_neighbors=6, rp_trees=0)),
        (300, 3, "sqeuclidean", NNDescentParams(n_neighbors=16, sample_rate=1.0)),
        (300, 6, MANHATTAN, NNDescentParams(n_neighbors=8)),
    ]

    def test_graphs_match_the_reference_build(self):
        for n, dim, name, params in self.CASES:
            rng = np.random.default_rng(n + dim)
            points = rng.standard_normal((n, dim)).astype(np.float32)
            # Repeated rows make exact ties between candidate distances.
            points[n // 2 :: 7] = points[0]
            metric = name if isinstance(name, Metric) else resolve_metric(name)
            got = nn_descent(points, metric, params, np.random.default_rng(1))
            with mock.patch.object(
                nndescent, "_merge_counted", reference_merge_counted
            ):
                want = nn_descent(points, metric, params, np.random.default_rng(1))
            assert same_bytes(got.neighbor_ids, want.neighbor_ids), name
            assert same_bytes(got.neighbor_dists, want.neighbor_dists), name
            assert got.n_iters == want.n_iters, name
            # Duplicates and self references are no longer evaluated.
            assert got.distance_evaluations < want.distance_evaluations, name

    def test_distance_evaluations_count_the_distances_computed(self):
        rng = np.random.default_rng(3)
        points = rng.standard_normal((800, 10)).astype(np.float32)
        metric, tally = counting(resolve_metric("euclidean"))
        result = nn_descent(points, metric, NNDescentParams(n_neighbors=8))
        assert result.distance_evaluations == sum(tally) > 0


# ---------------------------------------------------------------- k-means


@st.composite
def kmeans_case(draw):
    """Points with duplicates, zero columns and ``k`` up to ``n``."""
    n = draw(st.integers(1, 60))
    dim = draw(st.integers(1, 6))
    seed = draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    distinct = draw(st.integers(1, n))
    base = rng.standard_normal((distinct, dim)) * 10.0 ** rng.uniform(-3, 3)
    points = base[rng.integers(0, distinct, size=n)]
    zero_cols = draw(st.integers(0, dim - 1))
    if zero_cols:
        points[:, dim - zero_cols :] = 0.0
    if draw(st.booleans()):
        points[points == 0.0] = -0.0
    k = draw(st.one_of(st.integers(1, n), st.just(n)))
    max_iters = draw(st.integers(1, 25))
    return points, k, seed, max_iters


class TestKMeansParity:
    @given(kmeans_case())
    @settings(max_examples=300, deadline=None)
    def test_kmeans_matches_the_reference_bytes(self, case):
        points, k, seed, max_iters = case
        got = kmeans(points, k, np.random.default_rng(seed), max_iters=max_iters)
        centroids, assignments, inertia, n_iters = reference_kmeans(
            points, k, np.random.default_rng(seed), max_iters=max_iters
        )
        assert same_bytes(got.centroids, centroids)
        assert same_bytes(got.assignments, assignments)
        assert got.inertia == inertia or (np.isnan(got.inertia) and np.isnan(inertia))
        assert got.n_iters == n_iters

    @given(kmeans_case())
    @settings(max_examples=100, deadline=None)
    def test_seeding_matches_the_reference_bytes(self, case):
        points, k, seed, _ = case
        got = kmeans_plus_plus(points, k, np.random.default_rng(seed))
        want = reference_kmeans_plus_plus(points, k, np.random.default_rng(seed))
        assert same_bytes(got, want)

    def test_empty_clusters_are_reseeded_identically(self):
        # Three distinct points, eight clusters: seeding repeats points and
        # Lloyd's first pass leaves clusters empty.
        points = np.repeat(np.eye(3), 5, axis=0)
        got = kmeans(points, 8, np.random.default_rng(2))
        centroids, assignments, _, n_iters = reference_kmeans(
            points, 8, np.random.default_rng(2)
        )
        assert same_bytes(got.centroids, centroids)
        assert same_bytes(got.assignments, assignments)
        assert got.n_iters == n_iters

    def test_product_quantizer_matches_the_reference(self):
        """PQ training and encoding, including padded one-column subspaces."""
        for n, dim, params in [
            (500, 16, PQParams(n_subspaces=4, n_centroids=32)),
            (300, 7, PQParams(n_subspaces=8, n_centroids=16)),
            (40, 64, PQParams(n_subspaces=8, n_centroids=64)),
        ]:
            rng = np.random.default_rng(dim)
            points = rng.standard_normal((n, dim)).astype(np.float32)
            points[::3] = points[1]
            got = ProductQuantizer.train(points, params, np.random.default_rng(4))

            def plain(chunk, n_centroids, rng, max_iters):
                centroids, *_ = reference_kmeans(chunk, n_centroids, rng, max_iters)
                return mock.Mock(centroids=centroids)

            with mock.patch("repro.quantization.pq.kmeans", plain):
                want = ProductQuantizer.train(
                    points, params, np.random.default_rng(4)
                )
            assert same_bytes(got.codebooks, want.codebooks)
            assert same_bytes(got.encode(points), want.encode(points))
