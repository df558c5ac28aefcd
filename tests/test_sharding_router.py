"""Scatter-gather router tests: bit-identity, pruning, degradation.

The crown property: a :class:`~repro.sharding.ShardRouter` answers TkNN
queries **bit-identically** to a single-process reference over the same
stream — across shard counts, transports (in-process vs HTTP), pruning
decisions, and recovery histories.
"""

from __future__ import annotations

import json
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import (
    MBIConfig,
    RouterConfig,
    ShardRouter,
    ShardedResult,
    ServiceConfig,
)
from repro.exceptions import (
    ConfigurationError,
    ShardUnavailableError,
    TimestampOrderError,
)
from repro.faultinject import Action, get_failpoints
from repro.graph import GraphConfig
from repro.observability.trace import QueryTrace
from repro.observability.tracing import to_wire
from repro.service import IndexService
from repro.sharding import HttpTransport, make_worker_server

DIM = 8
N = 260
LEAF = 16


def _config() -> MBIConfig:
    return MBIConfig(
        leaf_size=LEAF,
        graph=GraphConfig(n_neighbors=6, exact_threshold=100_000),
    )


def _stream(seed: int = 0):
    rng = np.random.default_rng(seed)
    return rng.normal(size=(N, DIM)), np.arange(N, dtype=np.float64)


def _settle(router: ShardRouter) -> None:
    """Drain every shard's background block builds.

    Strict distance equality below requires both sides of a comparison
    to see the same block state: a half-built chain answers from the
    window-scan kernel while a built one answers from the fused
    norm-cache kernel, and the two differ in the last ulp (the ranking
    stays bit-equal either way — that part is asserted regardless).
    """
    for state in router._shards:
        state.transport.service.wait_builds()


def _open_router(tmp_path, n_shards, **kwargs) -> ShardRouter:
    router = ShardRouter.open(
        tmp_path / f"cluster-{n_shards}",
        n_shards=n_shards,
        dim=DIM,
        mbi_config=_config(),
        service_config=ServiceConfig(fsync="never"),
        config=kwargs.pop("config", RouterConfig(seed=7)),
        **kwargs,
    )
    vectors, timestamps = _stream()
    router.ingest_batch(vectors, timestamps)
    _settle(router)
    return router


WINDOWS = [
    (float("-inf"), float("inf")),
    (0.0, float(N) / 2),
    (float(N) / 3, 2 * float(N) / 3),
    (float(N) - 20.0, float(N)),  # narrow: most shards prunable
    (50.0, 50.0),  # empty window
]


class TestBitIdentity:
    def test_sharded_equals_single_process_reference(self, tmp_path):
        """Shard counts 1, 2, 3, 5 all answer bit-identically."""
        routers = {n: _open_router(tmp_path, n) for n in (1, 2, 3, 5)}
        queries = np.random.default_rng(1).normal(size=(6, DIM))
        try:
            for t_start, t_end in WINDOWS:
                ref = routers[1].search_batch(
                    queries, 10, t_start, t_end, seed=42
                )
                for n in (2, 3, 5):
                    got = routers[n].search_batch(
                        queries, 10, t_start, t_end, seed=42
                    )
                    for a, b in zip(ref, got):
                        assert np.array_equal(a.positions, b.positions)
                        assert np.array_equal(a.distances, b.distances)
                        assert np.array_equal(a.timestamps, b.timestamps)
                        assert a.stats.window_size == b.stats.window_size
        finally:
            for router in routers.values():
                router.close()

    def test_search_is_deterministic_across_calls(self, tmp_path):
        with _open_router(tmp_path, 3) as router:
            query = np.random.default_rng(2).normal(size=DIM)
            first = router.search(query, 10, 10.0, 200.0, seed=5)
            second = router.search(query, 10, 10.0, 200.0, seed=5)
            assert np.array_equal(first.positions, second.positions)
            assert np.array_equal(first.distances, second.distances)

    def test_http_transport_matches_in_process(self, tmp_path):
        """The HTTP worker endpoint answers bit-identically (same data)."""
        with _open_router(tmp_path, 2) as reference:
            # Serve each reference shard's own service over HTTP threads.
            servers = [
                make_worker_server(state.transport.service)
                for state in reference._shards
            ]
            threads = [
                threading.Thread(target=s.serve_forever, daemon=True)
                for s in servers
            ]
            for thread in threads:
                thread.start()
            try:
                transports = [
                    HttpTransport(i, "127.0.0.1", s.server_address[1])
                    for i, s in enumerate(servers)
                ]
                http_router = ShardRouter(transports, reference.plan)
                queries = np.random.default_rng(3).normal(size=(4, DIM))
                for t_start, t_end in WINDOWS[:4]:
                    want = reference.search_batch(
                        queries, 10, t_start, t_end, seed=11
                    )
                    got = http_router.search_batch(
                        queries, 10, t_start, t_end, seed=11
                    )
                    for a, b in zip(want, got):
                        assert np.array_equal(a.positions, b.positions)
                        assert np.array_equal(a.distances, b.distances)
                http_router.detach()
            finally:
                for server in servers:
                    server.shutdown()
                    server.server_close()


class _CapturingConnection:
    """Stands in for the transport's ``HTTPConnection``; records each body."""

    def __init__(self, reply: dict) -> None:
        self.bodies: list[str] = []
        self._reply = json.dumps(reply).encode()

    def request(self, method, path, body=None, headers=None):
        self.bodies.append(body)

    def getresponse(self):
        reply = self._reply

        class Response:
            status = 200

            def read(self):
                return reply

        return Response()


class TestStrictRequests:
    def test_request_bodies_are_strict_json(self):
        """An unbounded window travels as ``"-inf"``/``"inf"``, never bare."""
        transport = HttpTransport(0, "127.0.0.1", 1)
        conn = _CapturingConnection(
            {"positions": [], "distances": [], "timestamps": []}
        )
        transport._local.conn = conn
        transport.search(np.zeros(DIM), 5, float("-inf"), float("inf"), seed=3)

        def reject(name):
            raise ValueError(f"non-standard JSON constant {name}")

        (body,) = conn.bodies
        payload = json.loads(body, parse_constant=reject)
        assert (payload["t_start"], payload["t_end"]) == ("-inf", "inf")
        assert float(payload["t_start"]) == float("-inf")


    @given(
        st.integers(1, 6).flatmap(
            lambda dim: st.lists(
                st.lists(
                    st.floats(allow_nan=False, allow_infinity=False),
                    min_size=dim,
                    max_size=dim,
                ),
                min_size=1,
                max_size=8,
            )
        )
    )
    @settings(max_examples=60, deadline=None)
    def test_finite_ingest_bodies_match_the_wire_encoding(self, rows):
        """A finite batch skips ``to_wire`` and sends the same bytes."""
        vectors = np.asarray(rows, dtype=np.float64)
        timestamps = np.arange(len(rows), dtype=np.float64) / 3
        transport = HttpTransport(0, "127.0.0.1", 1)
        conn = _CapturingConnection({"positions": [0, len(rows)]})
        transport._local.conn = conn
        assert transport.ingest(vectors, timestamps) == len(rows)
        payload = {"vectors": vectors.tolist(), "timestamps": timestamps.tolist()}
        assert conn.bodies == [json.dumps(to_wire(payload), allow_nan=False)]

    def test_non_finite_ingest_is_refused_over_http(self, tmp_path):
        """A batch with NaN or inf still reaches the shard, which refuses it."""
        service = IndexService.open(
            tmp_path / "shard",
            dim=DIM,
            mbi_config=_config(),
            config=ServiceConfig(fsync="never"),
        )
        server = make_worker_server(service)
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        try:
            transport = HttpTransport(0, "127.0.0.1", server.server_address[1])
            vectors, timestamps = _stream()
            assert transport.ingest(vectors[:3], timestamps[:3]) == 3
            for bad in (np.nan, np.inf, -np.inf):
                batch = vectors[3:5].copy()
                batch[0, 2] = bad
                with pytest.raises(ConnectionError, match="400"):
                    transport.ingest(batch, timestamps[3:5])
            assert len(service.index) == 3
            transport.close()
        finally:
            server.shutdown()
            server.server_close()
            service.close()


class TestPruning:
    def test_narrow_window_prunes_shards(self, tmp_path):
        with _open_router(tmp_path, 3) as router:
            query = np.random.default_rng(4).normal(size=DIM)
            result = router.search(query, 5, 0.0, float(LEAF), seed=1)
            assert result.pruned_shards  # only stripe 0's shard survives
            assert len(result.queried_shards) < router.n_shards
            assert not result.partial

    def test_empty_window_prunes_everything(self, tmp_path):
        with _open_router(tmp_path, 3) as router:
            query = np.random.default_rng(4).normal(size=DIM)
            result = router.search(query, 5, 50.0, 50.0, seed=1)
            assert len(result) == 0
            assert result.queried_shards == ()
            assert len(result.pruned_shards) == router.n_shards


class TestIngestRouting:
    def test_global_timestamp_order_enforced(self, tmp_path):
        with _open_router(tmp_path, 2) as router:
            vector = np.zeros(DIM)
            with pytest.raises(TimestampOrderError):
                router.ingest(vector, 0.5)  # before the last routed ts
            router.ingest(vector, float(N))  # non-decreasing: fine

    def test_ingest_to_draining_shard_raises(self, tmp_path):
        with _open_router(tmp_path, 2) as router:
            owner = router.plan.shard_of(router.total_records)
            router.drain(owner)
            with pytest.raises(ShardUnavailableError):
                router.ingest(np.zeros(DIM), float(N))
            router.restore(owner)
            router.ingest(np.zeros(DIM), float(N))

    def test_mismatched_lengths_rejected(self, tmp_path):
        with _open_router(tmp_path, 2) as router:
            with pytest.raises(ConfigurationError):
                router.ingest_batch(
                    np.zeros((3, DIM)), np.array([float(N)] * 2)
                )


class TestDegradation:
    def test_drained_shard_fails_strict_queries(self, tmp_path):
        with _open_router(tmp_path, 2) as router:
            router.drain(1)
            with pytest.raises(ShardUnavailableError):
                router.search(np.zeros(DIM), 5, seed=1)

    def test_drained_shard_degrades_to_partial(self, tmp_path):
        with _open_router(tmp_path, 2) as router:
            router.drain(1)
            result = router.search(
                np.zeros(DIM), 5, seed=1, allow_partial=True
            )
            assert result.partial
            assert result.failed_shards == (1,)
            assert len(result) > 0  # shard 0 still answered

    def test_retry_absorbs_transient_fault(self, tmp_path):
        config = RouterConfig(seed=7, retries=1)
        with _open_router(tmp_path, 2, config=config) as router:
            query = np.random.default_rng(5).normal(size=DIM)
            want = router.search(query, 5, seed=9)
            with get_failpoints().scope(
                {"shard.scatter": Action("raise", "runtime", times=1)}
            ):
                got = router.search(query, 5, seed=9)
            assert not got.partial
            assert np.array_equal(want.positions, got.positions)

    def test_exhausted_retries_raise_without_allow_partial(self, tmp_path):
        config = RouterConfig(seed=7, retries=0)
        with _open_router(tmp_path, 2, config=config) as router:
            with get_failpoints().scope(
                {"shard.scatter": Action("raise", "runtime", times=-1)}
            ):
                with pytest.raises(ShardUnavailableError):
                    router.search(np.zeros(DIM), 5, seed=1)


class TestAttach:
    def test_transport_count_must_match_plan(self, tmp_path):
        with _open_router(tmp_path, 2) as router:
            transports = [s.transport for s in router._shards]
            with pytest.raises(ConfigurationError):
                ShardRouter(transports[:1], router.plan)

    def test_reattach_preserves_pruning_state(self, tmp_path):
        """A re-attached router rebuilds stripe bounds from the shards."""
        with _open_router(tmp_path, 3) as router:
            query = np.random.default_rng(6).normal(size=DIM)
            want = router.search(query, 5, 0.0, float(LEAF), seed=3)
            transports = [s.transport for s in router._shards]
            reattached = ShardRouter(transports, router.plan)
            got = reattached.search(query, 5, 0.0, float(LEAF), seed=3)
            assert got.pruned_shards == want.pruned_shards
            assert np.array_equal(got.positions, want.positions)
            assert np.array_equal(got.distances, want.distances)
            reattached.detach()


class TestObservability:
    def test_trace_records_one_span_per_shard(self, tmp_path):
        with _open_router(tmp_path, 3) as router:
            trace = QueryTrace()
            router.search(
                np.zeros(DIM), 5, 0.0, float(LEAF), seed=1, trace=trace
            )
            assert len(trace.shards) == 3
            pruned = [s.shard for s in trace.shards if s.pruned]
            answered = [s.shard for s in trace.shards if not s.pruned]
            assert len(answered) >= 1 and len(pruned) >= 1
            assert all(s.n_results == 0 for s in trace.shards if s.pruned)
            assert "shard scatter:" in trace.render()
            # Shard facts (not timings) are part of the decision signature.
            assert trace.signature()[4] == tuple(
                (s.shard, s.pruned, s.failed, s.n_results, s.distance_evaluations)
                for s in trace.shards
            )

    def test_stats_and_health_shapes(self, tmp_path):
        with _open_router(tmp_path, 2) as router:
            stats = router.stats()
            assert stats["n_shards"] == 2
            assert stats["records"] == N
            assert [row["shard"] for row in stats["shards"]] == [0, 1]
            assert sum(row["records"] for row in stats["shards"]) == N
            health = router.health()
            assert all(row["ok"] for row in health)
            assert [row["records"] for row in health] == [
                row["records"] for row in stats["shards"]
            ]


class TestMergeSemantics:
    def test_merge_uses_distance_then_position_tie_break(self, tmp_path):
        """Duplicate vectors across shards merge by (distance, position)."""
        config = _config()
        router = ShardRouter.open(
            tmp_path / "ties",
            n_shards=2,
            dim=DIM,
            mbi_config=config,
            service_config=ServiceConfig(fsync="never"),
        )
        single = ShardRouter.open(
            tmp_path / "ties-single",
            n_shards=1,
            dim=DIM,
            mbi_config=config,
            service_config=ServiceConfig(fsync="never"),
        )
        try:
            # Every vector identical: all distances tie, so the merged
            # order is decided purely by global position.
            vectors = np.ones((4 * LEAF, DIM))
            timestamps = np.arange(4 * LEAF, dtype=np.float64)
            router.ingest_batch(vectors, timestamps)
            single.ingest_batch(vectors, timestamps)
            _settle(router)
            _settle(single)
            got = router.search(np.ones(DIM), 10, seed=0)
            want = single.search(np.ones(DIM), 10, seed=0)
            assert np.array_equal(got.positions, want.positions)
            assert list(got.positions) == sorted(got.positions)
        finally:
            router.close()
            single.close()

    def test_result_len_and_stats_sum(self, tmp_path):
        with _open_router(tmp_path, 3) as router:
            result = router.search(np.zeros(DIM), 10, seed=1)
            assert isinstance(result, ShardedResult)
            assert len(result) == 10
            assert result.stats.window_size == N
            assert result.stats.distance_evaluations > 0
