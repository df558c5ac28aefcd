"""Property tests: the sharded merge is bit-identical to unsharded search.

Each example draws a random stream, a random routing plan (including the
single-shard and empty-shard degenerate cases), and random query
parameters; per-shard answers over the shard-local stores are merged
exactly as :class:`~repro.sharding.ShardRouter` merges them (global
positions, ascending ``(distance, position)`` lexsort, top-k) and must
equal the unsharded index's answer bit for bit in its ranking
(positions); distance values are held to a 1e-12 relative
tolerance, because shard-local scans run their BLAS kernel
over different matrix shapes than the unsharded scan.  On the exact
search path the ranking identity is a theorem — per-shard exact top-k
loses no global top-k candidate — so any divergence is a routing/merge
bug.
"""

from __future__ import annotations

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import MBIConfig, MultiLevelBlockIndex, SearchParams
from repro.baselines import exact_tknn
from repro.core.shardmap import ShardPlan
from repro.distances import resolve_metric
from repro.graph import GraphConfig
from repro.storage import VectorStore

DIM = 4

SETTINGS = settings(
    max_examples=40,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)


def _build(vectors, timestamps, leaf_size):
    index = MultiLevelBlockIndex(
        DIM,
        "euclidean",
        MBIConfig(
            leaf_size=leaf_size,
            graph=GraphConfig(n_neighbors=4, exact_threshold=100_000),
        ),
    )
    if len(vectors):
        index.extend(vectors, timestamps)
    return index


@st.composite
def sharded_case(draw):
    n = draw(st.integers(0, 120))
    seed = draw(st.integers(0, 2**16))
    rng = np.random.default_rng(seed)
    vectors = rng.standard_normal((n, DIM)).astype(np.float32)
    # Integer-valued timestamps with many ties exercise the half-open
    # window boundaries and the (distance, position) tie-break.
    timestamps = np.sort(
        rng.integers(0, max(1, n // 2) + 1, size=n).astype(np.float64)
    )
    plan = ShardPlan(
        n_shards=draw(st.integers(1, 5)),
        stripe_size=draw(st.integers(1, 8)),
    )
    k = draw(st.integers(1, 12))
    flavor = draw(st.integers(0, 3))
    if flavor == 0:
        window = (float("-inf"), float("inf"))
    elif flavor == 1 and n:
        pivot = float(rng.choice(timestamps))
        window = (pivot, pivot)  # empty half-open window
    elif flavor == 2 and n:
        a, b = sorted(rng.uniform(-1, timestamps[-1] + 1, size=2))
        window = (float(a), float(b))
    else:
        # Exact timestamp endpoints: inclusive start, exclusive end.
        lo = float(rng.choice(timestamps)) if n else 0.0
        hi = float(rng.choice(timestamps)) if n else 1.0
        window = (min(lo, hi), max(lo, hi))
    leaf_size = draw(st.sampled_from([4, 8]))
    epsilon = draw(st.sampled_from([1.0, 1.2, 1.5]))
    query = rng.standard_normal(DIM)
    return vectors, timestamps, plan, k, window, leaf_size, epsilon, query


def _exact_params(epsilon: float) -> SearchParams:
    return SearchParams(
        epsilon=epsilon, max_candidates=64, brute_force_threshold=10**9
    )


@given(sharded_case())
@SETTINGS
def test_merged_shard_topk_equals_unsharded(case):
    vectors, timestamps, plan, k, window, leaf_size, epsilon, query = case
    params = _exact_params(epsilon)
    rng_seed = 1234

    # ---- unsharded reference over the full stream ----------------------
    full = _build(vectors, timestamps, leaf_size)
    if len(full):
        want = full.search(
            query,
            k,
            *window,
            params=params,
            rng=np.random.default_rng(rng_seed),
        )
        want_positions = np.asarray(want.positions)
        want_distances = np.asarray(want.distances)
    else:
        # An empty cluster has no searchable shard; the merged answer
        # must likewise be empty.
        want_positions = np.empty(0, dtype=np.int64)
        want_distances = np.empty(0)

    # ---- per-shard indexes over the shard-local stores ------------------
    owners = np.array(
        [plan.shard_of(p) for p in range(len(vectors))], dtype=int
    )
    positions_parts, distances_parts = [], []
    for shard in range(plan.n_shards):
        mask = owners == shard
        local_index = _build(vectors[mask], timestamps[mask], leaf_size)
        if not len(local_index):
            continue  # empty shard: contributes nothing, like the router
        reply = local_index.search(
            query,
            k,
            *window,
            params=params,
            rng=np.random.default_rng(rng_seed),
        )
        local_positions = np.asarray(reply.positions, dtype=np.int64)
        positions_parts.append(
            np.array(
                [plan.global_position(shard, int(p)) for p in local_positions],
                dtype=np.int64,
            )
        )
        distances_parts.append(np.asarray(reply.distances))

    # ---- the router's merge rule ---------------------------------------
    if positions_parts:
        positions = np.concatenate(positions_parts)
        distances = np.concatenate(distances_parts)
        order = np.lexsort((positions, distances))[:k]
        positions, distances = positions[order], distances[order]
    else:
        positions = np.empty(0, dtype=np.int64)
        distances = np.empty(0)

    assert np.array_equal(positions, want_positions), (
        f"merged {positions.tolist()} != unsharded "
        f"{want_positions.tolist()} (plan={plan}, k={k}, window={window})"
    )
    # Distance *values* may differ in the last ulp: a shard-local scan
    # runs its BLAS kernel over a different matrix shape than the
    # unsharded scan (docs/sharding.md — the ranking above stays
    # byte-equal).
    assert np.allclose(distances, want_distances, rtol=1e-12, atol=0.0)


@given(sharded_case())
@SETTINGS
def test_unsharded_exact_matches_oracle_set(case):
    """Anchor the reference itself: exact MBI equals the brute oracle."""
    vectors, timestamps, plan, k, window, leaf_size, epsilon, query = case
    del plan  # the oracle check is independent of the split
    store = VectorStore(DIM)
    for vector, ts in zip(vectors, timestamps):
        store.append(vector, float(ts))
    full = _build(vectors, timestamps, leaf_size)
    if not len(full):
        return  # empty stream: nothing to anchor
    oracle = exact_tknn(
        store, resolve_metric("euclidean"), query, k, *window
    )
    got = full.search(
        query,
        k,
        *window,
        params=_exact_params(epsilon),
        rng=np.random.default_rng(0),
    )
    assert len(got.positions) == len(oracle.positions)
    assert np.allclose(got.distances, oracle.distances, rtol=1e-6, atol=1e-7)
