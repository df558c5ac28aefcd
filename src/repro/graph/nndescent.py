"""Vectorised NNDescent kNN-graph construction (Dong, Charikar & Li, 2011).

NNDescent iteratively improves each node's k-nearest-neighbor list using the
observation that *a neighbor of a neighbor is likely a neighbor*.  The paper
builds every MBI block's graph with NNDescent, citing its empirical
``O(n^1.14)`` build cost.

This implementation restructures the classic per-pair local join into
chunked NumPy array operations so the whole build stays inside vectorised
kernels:

1. initialise neighbor lists randomly, optionally refined with RP-tree
   leaves (:mod:`repro.graph.rp_forest`);
2. each round, for a chunk of nodes, gather candidates = current neighbors
   + neighbors-of-neighbors + sampled reverse neighbors;
3. merge them with the current lists in slabs of rows: drop self references
   and every repeat of an id (the sampled neighbours are listed already,
   and two-hop ids repeat) *before* computing any distance, evaluate only the fresh candidates with
   one rowwise kernel call over a flat gather of ``(node, id)`` pairs, and
   keep the ``k`` best per node;
4. stop when fewer than ``delta * n * k`` list entries changed in a round.

The result rows are sorted ascending by distance, which downstream code
(reverse-edge capping, exact-vs-approx comparisons) relies on.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..distances.metrics import Metric
from .rp_forest import rp_forest_candidate_pairs


@dataclass(frozen=True)
class NNDescentParams:
    """Tuning knobs for the NNDescent build.

    Attributes:
        n_neighbors: Size ``k'`` of each node's neighbor list (the graph
            degree before reverse-edge augmentation).
        max_iters: Upper bound on improvement rounds.
        delta: Early-termination threshold — stop when the fraction of list
            entries updated in a round drops below this.
        sample_rate: Dong et al.'s ``rho``: the fraction of each node's
            neighbor list expanded into two-hop candidates per round.
        reverse_sample: Number of reverse neighbors sampled per node per
            round as extra candidates.
        rp_trees: Number of RP trees used to seed the initial lists
            (0 disables tree initialisation).
        chunk_size: Nodes joined per vectorised batch.  Not only a
            memory/speed trade-off: a later chunk of a round reads the
            lists that earlier chunks of the same round already updated,
            so another value builds another (equally valid) graph and may
            take another number of rounds.  Within a chunk the merge is
            row-local, so how it splits the chunk internally never matters.
    """

    n_neighbors: int = 16
    max_iters: int = 10
    delta: float = 0.002
    sample_rate: float = 0.5
    reverse_sample: int = 8
    rp_trees: int = 2
    chunk_size: int = 1024

    def __post_init__(self) -> None:
        if self.n_neighbors < 1:
            raise ValueError(f"n_neighbors must be >= 1, got {self.n_neighbors}")
        if not 0.0 <= self.delta < 1.0:
            raise ValueError(f"delta must be in [0, 1), got {self.delta}")
        if not 0.0 < self.sample_rate <= 1.0:
            raise ValueError(
                f"sample_rate must be in (0, 1], got {self.sample_rate}"
            )
        if self.chunk_size < 1:
            raise ValueError(f"chunk_size must be >= 1, got {self.chunk_size}")


@dataclass(frozen=True)
class NNDescentResult:
    """Output of :func:`nn_descent`.

    Attributes:
        neighbor_ids: ``(n, k)`` int32 ids, each row sorted by distance.
        neighbor_dists: ``(n, k)`` float64 distances aligned with the ids.
        n_iters: Improvement rounds actually executed.
        distance_evaluations: Distances actually computed: the random
            initial lists plus every fresh candidate of every merge, not
            the repeats a merge discards unevaluated (a proxy for build
            cost used by the scalability benches).
    """

    neighbor_ids: np.ndarray
    neighbor_dists: np.ndarray
    n_iters: int
    distance_evaluations: int


_SLAB_ROWS = 128


def _merge_candidates(
    node_ids: np.ndarray,
    current_ids: np.ndarray,
    current_dists: np.ndarray,
    candidate_ids: np.ndarray,
    points: np.ndarray,
    metric: Metric,
) -> tuple[np.ndarray, np.ndarray, int]:
    """Merge candidate neighbors into the current lists of a node chunk.

    Args:
        node_ids: ``(m,)`` ids of the chunk's nodes.
        current_ids / current_dists: ``(m, k)`` current lists.
        candidate_ids: ``(m, C)`` proposed neighbor ids (duplicates and
            self-references allowed; they are filtered here).
        points: Full ``(n, d)`` data matrix.
        metric: Distance metric.

    Returns:
        ``(new_ids, new_dists, changed)`` where ``changed`` counts list
        entries that differ from ``current_ids``.
    """
    new_ids, new_dists, _ = _merge_counted(
        node_ids, current_ids, current_dists, candidate_ids, points, metric
    )
    return new_ids, new_dists, int(np.count_nonzero(new_ids != current_ids))


def _merge_counted(
    node_ids: np.ndarray,
    current_ids: np.ndarray,
    current_dists: np.ndarray,
    candidate_ids: np.ndarray,
    points: np.ndarray,
    metric: Metric,
) -> tuple[np.ndarray, np.ndarray, int]:
    """:func:`_merge_candidates` returning the distances computed third.

    Every step is row-local, so a chunk is merged in slabs of
    ``_SLAB_ROWS`` rows: the result is the same for any slab size and
    the gathered candidate vectors stay small (about 2 MB at d = 64).
    """
    if len(node_ids) > _SLAB_ROWS:
        slabs = [
            _merge_counted(
                node_ids[start : start + _SLAB_ROWS],
                current_ids[start : start + _SLAB_ROWS],
                current_dists[start : start + _SLAB_ROWS],
                candidate_ids[start : start + _SLAB_ROWS],
                points,
                metric,
            )
            for start in range(0, len(node_ids), _SLAB_ROWS)
        ]
        return (
            np.concatenate([slab[0] for slab in slabs]),
            np.concatenate([slab[1] for slab in slabs]),
            sum(slab[2] for slab in slabs),
        )

    k = current_ids.shape[1]
    all_ids = np.concatenate([current_ids, candidate_ids], axis=1)
    width = all_ids.shape[1]

    # Disable self references and every copy of an id but its first in
    # column order (a current-list entry before any candidate) *before*
    # any distance is computed.  Sorting the keys ``id << shift | column``
    # puts each id's copies in column order, as a stable sort by id does.
    drop = all_ids == node_ids[:, None]
    shift = width.bit_length()
    keys = (all_ids.astype(np.int64) << shift) | np.arange(width)
    keys.sort(axis=1)
    sorted_ids = keys >> shift
    repeats = np.flatnonzero(sorted_ids[:, 1:] == sorted_ids[:, :-1])
    rows = repeats // (width - 1)
    columns = np.take(keys, repeats + rows + 1) & ((1 << shift) - 1)
    np.put(drop, rows * width + columns, True)

    # Current entries keep their stored distances; only the surviving
    # candidates are evaluated, as one flat gather of (node, id) pairs.
    fresh = np.flatnonzero(~drop[:, k:])
    rows = fresh // (width - k)
    fresh_dists = metric.rowwise(
        points[node_ids[rows]], points[np.take(candidate_ids, fresh)][:, None, :]
    )[:, 0]
    all_dists = np.full(
        all_ids.shape, np.inf, dtype=np.result_type(current_dists, fresh_dists)
    )
    all_dists[:, :k] = current_dists
    all_dists[:, :k][drop[:, :k]] = np.inf
    np.put(all_dists, fresh + (rows + 1) * k, fresh_dists)

    # Keep the k best per row, ties broken by id for determinism.
    part = np.argpartition(all_dists, k - 1, axis=1)[:, :k]
    part_dists = np.take_along_axis(all_dists, part, axis=1)
    part_ids = np.take_along_axis(all_ids, part, axis=1)
    order = np.lexsort((part_ids, part_dists), axis=1)
    new_dists = np.take_along_axis(part_dists, order, axis=1)
    new_ids = np.take_along_axis(part_ids, order, axis=1)
    return new_ids, new_dists, len(fresh)


def _random_init(
    points: np.ndarray, k: int, metric: Metric, rng: np.random.Generator
) -> tuple[np.ndarray, np.ndarray]:
    """Random initial neighbor lists: k distinct non-self ids per node."""
    n = len(points)
    # Sample k offsets in [1, n) and add the node id modulo n: guarantees
    # no self edges; duplicates within a row are possible but rare and get
    # cleaned up by the first merge round.
    offsets = rng.integers(1, n, size=(n, k))
    ids = (np.arange(n)[:, None] + offsets) % n
    dists = metric.rowwise(points, points[ids])
    order = np.lexsort((ids, dists), axis=1)
    return (
        np.take_along_axis(ids, order, axis=1),
        np.take_along_axis(dists, order, axis=1),
    )


def _rp_tree_refine(
    points: np.ndarray,
    ids: np.ndarray,
    dists: np.ndarray,
    params: NNDescentParams,
    metric: Metric,
    rng: np.random.Generator,
) -> int:
    """Fold RP-tree leaf co-membership into the initial neighbor lists.

    Each tree's leaves are combined into one ``(n, max_leaf)`` candidate
    matrix (rows padded with the node's own id, which the merge discards)
    so the whole refinement runs as a handful of chunked merges instead of
    one merge per leaf.  ``ids`` and ``dists`` are updated in place; the
    return value is the number of distances computed.
    """
    n = len(points)
    k = params.n_neighbors
    leaf_size = max(2 * k, 8)
    evaluations = 0
    for _ in range(params.rp_trees):
        leaves = rp_forest_candidate_pairs(points, leaf_size, 1, rng)
        max_leaf = max(len(leaf) for leaf in leaves)
        candidates = np.repeat(np.arange(n, dtype=ids.dtype)[:, None], max_leaf, 1)
        for leaf in leaves:
            if len(leaf) < 2:
                continue
            candidates[leaf, : len(leaf)] = leaf
        for start in range(0, n, params.chunk_size):
            chunk = np.arange(start, min(start + params.chunk_size, n))
            ids[chunk], dists[chunk], computed = _merge_counted(
                chunk, ids[chunk], dists[chunk], candidates[chunk], points, metric
            )
            evaluations += computed
    return evaluations


def _reverse_samples(
    ids: np.ndarray, sample: int, rng: np.random.Generator
) -> np.ndarray:
    """``(n, sample)`` reverse-neighbor ids per node (self-padded when few).

    Node ``j`` is a reverse neighbor of ``i`` when ``i`` appears in ``j``'s
    list.  Rows with fewer than ``sample`` reverse neighbors are padded with
    the node's own id, which the merge step discards as a self reference.
    """
    n, k = ids.shape
    # Shuffle edges first so taking each target's first `sample` incoming
    # edges is an unbiased random sample of its reverse neighbors.
    perm = rng.permutation(n * k)
    flat = ids.ravel()[perm]
    order = np.argsort(flat, kind="stable")
    sources = (perm[order] // k).astype(ids.dtype)
    targets = flat[order]
    starts = np.searchsorted(targets, np.arange(n), side="left")
    ends = np.searchsorted(targets, np.arange(n), side="right")
    out = np.repeat(np.arange(n, dtype=ids.dtype)[:, None], sample, axis=1)
    take = starts[:, None] + np.arange(sample)[None, :]
    valid = take < ends[:, None]
    out[valid] = sources[take[valid]]
    return out


def nn_descent(
    points: np.ndarray,
    metric: Metric,
    params: NNDescentParams | None = None,
    rng: np.random.Generator | None = None,
) -> NNDescentResult:
    """Build an approximate kNN graph over ``points``.

    Args:
        points: ``(n, d)`` data matrix with ``n >= 2``.
        metric: Distance metric.
        params: Build parameters; defaults to :class:`NNDescentParams`.
        rng: Randomness source; defaults to a fixed-seed generator so builds
            are reproducible unless the caller opts into variation.

    Returns:
        An :class:`NNDescentResult` whose rows are sorted by distance.

    Notes:
        When ``n <= n_neighbors + 1`` the exact graph is returned directly
        (every other point is a neighbor); callers that want strict control
        should use :func:`repro.graph.builder.build_exact_graph` instead.
    """
    if params is None:
        params = NNDescentParams()
    if rng is None:
        rng = np.random.default_rng(0)
    points = np.asarray(points, dtype=np.float32)
    n = len(points)
    if n < 2:
        raise ValueError(f"need at least 2 points to build a graph, got {n}")
    k = min(params.n_neighbors, n - 1)

    if n <= params.n_neighbors + 1:
        return _exact_result(points, k, metric)

    ids, dists = _random_init(points, k, metric, rng)
    evaluations = ids.size
    if params.rp_trees > 0:
        evaluations += _rp_tree_refine(points, ids, dists, params, metric, rng)

    n_iters = 0
    threshold = max(1, int(params.delta * n * k))
    expand = max(1, int(round(params.sample_rate * k)))
    # A node needs re-joining only while its neighborhood is in flux: either
    # its own list changed last round, or a (sampled) neighbor's list did.
    active = np.ones(n, dtype=bool)
    for _ in range(params.max_iters):
        n_iters += 1
        reverse = _reverse_samples(ids, params.reverse_sample, rng)
        row_changed = np.zeros(n, dtype=bool)
        active_nodes = np.nonzero(active)[0]
        total_changed = 0
        for start in range(0, len(active_nodes), params.chunk_size):
            chunk = active_nodes[start : start + params.chunk_size]
            # Two-hop expansion over a rho-sample of each node's list (Dong
            # et al.'s local-join sampling, node-centric formulation).
            if expand < k:
                cols = rng.integers(0, k, size=(len(chunk), expand))
                sampled = np.take_along_axis(ids[chunk], cols, axis=1)
            else:
                sampled = ids[chunk]
            two_hop = ids[sampled].reshape(len(chunk), -1)
            candidates = np.concatenate([sampled, two_hop, reverse[chunk]], axis=1)
            new_ids, new_dists, computed = _merge_counted(
                chunk, ids[chunk], dists[chunk], candidates, points, metric
            )
            evaluations += computed
            changed = new_ids != ids[chunk]
            row_changed[chunk] = changed.any(axis=1)
            total_changed += int(np.count_nonzero(changed))
            ids[chunk] = new_ids
            dists[chunk] = new_dists
        if total_changed <= threshold:
            break
        # Wake a node when it changed, a forward neighbor changed, or a
        # sampled reverse neighbor changed.
        active = row_changed | row_changed[ids].any(axis=1)
        active |= row_changed[reverse].any(axis=1)
        if not active.any():
            break

    return NNDescentResult(
        neighbor_ids=ids.astype(np.int32),
        neighbor_dists=dists,
        n_iters=n_iters,
        distance_evaluations=evaluations,
    )


def _exact_result(points: np.ndarray, k: int, metric: Metric) -> NNDescentResult:
    """Exact kNN lists for tiny inputs where iteration is pointless."""
    n = len(points)
    all_dists = metric.cross(points, points)
    np.fill_diagonal(all_dists, np.inf)
    part = np.argpartition(all_dists, k - 1, axis=1)[:, :k]
    part_dists = np.take_along_axis(all_dists, part, axis=1)
    order = np.lexsort((part, part_dists), axis=1)
    ids = np.take_along_axis(part, order, axis=1)
    dists = np.take_along_axis(part_dists, order, axis=1)
    return NNDescentResult(
        neighbor_ids=ids.astype(np.int32),
        neighbor_dists=dists,
        n_iters=0,
        distance_evaluations=n * n,
    )
