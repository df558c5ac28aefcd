"""End-to-end distributed tracing through the scatter-gather router.

The tentpole property of cluster telemetry: a sampled router query yields
ONE stitched trace — a root span whose children are the per-shard scatter
spans, each carrying the worker's full local ``QueryTrace`` (block spans,
tier marks, strategy choices) — and arming any of it never changes what a
query answers.
"""

from __future__ import annotations

import threading

import numpy as np
import pytest

from repro import (
    MBIConfig,
    RouterConfig,
    ServiceConfig,
    ShardRouter,
)
from repro.faultinject import Action, get_failpoints
from repro.graph import GraphConfig
from repro.observability.metrics import aggregate_states
from repro.observability.telemetry import (
    TelemetryConfig,
    configure_telemetry,
    get_telemetry,
)
from repro.sharding import HttpTransport, make_worker_server

DIM = 8
N = 200
LEAF = 16


def _config() -> MBIConfig:
    return MBIConfig(
        leaf_size=LEAF,
        graph=GraphConfig(n_neighbors=6, exact_threshold=100_000),
    )


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
    rng = np.random.default_rng(0)
    router.ingest_batch(
        rng.normal(size=(N, DIM)), np.arange(N, dtype=np.float64)
    )
    for state in router._shards:
        state.transport.service.wait_builds()
    return router


def _arm(**overrides) -> None:
    defaults = dict(
        sample_rate=1.0, rate_limit_per_sec=1e6, slow_threshold=0.0, seed=0
    )
    defaults.update(overrides)
    configure_telemetry(TelemetryConfig(**defaults))


def _latest_router_record():
    for record in get_telemetry().recent.recent():
        if record.source == "router":
            return record
    raise AssertionError("no router record captured")


class TestBitIdentityUnderSampling:
    def test_sampling_never_changes_answers(self, tmp_path):
        """Acceptance: with sampling on, answers stay bit-identical."""
        with _open_router(tmp_path, 2) as router:
            queries = np.random.default_rng(1).normal(size=(4, DIM))
            configure_telemetry(None)  # disarmed reference
            want = [
                router.search(q, 10, 10.0, 180.0, seed=5) for q in queries
            ]
            _arm()
            got = [
                router.search(q, 10, 10.0, 180.0, seed=5) for q in queries
            ]
            assert len(get_telemetry().recent) > 0  # sampling did happen
            for a, b in zip(want, got):
                assert np.array_equal(a.positions, b.positions)
                assert np.array_equal(a.distances, b.distances)
                assert np.array_equal(a.timestamps, b.timestamps)


class TestStitchedTraceStructure:
    def test_root_span_parents_per_shard_spans(self, tmp_path):
        with _open_router(tmp_path, 3) as router:
            _arm()
            query = np.random.default_rng(2).normal(size=DIM)
            router.search(query, 5, 0.0, float(N), seed=3)
            record = _latest_router_record()
            stitched = record.stitched
            assert stitched is not None
            assert record.trace_id == stitched.trace_id
            root = stitched.root
            assert root.name == "router.search"
            assert root.parent_id is None
            assert root.trace_id == stitched.trace_id
            assert root.seconds > 0.0
            assert len(stitched.spans) == 3
            for shard, span in enumerate(stitched.spans):
                assert span.trace_id == stitched.trace_id
                assert span.parent_id == root.span_id
                assert span.tags["shard"] == shard
                assert span.tags["status"] in ("ok", "pruned", "FAILED")

    def test_shard_spans_carry_block_level_detail(self, tmp_path):
        """Acceptance: child spans carry block/tier/strategy detail."""
        with _open_router(tmp_path, 2) as router:
            _arm()
            query = np.random.default_rng(3).normal(size=DIM)
            router.search(query, 5, 0.0, float(N), seed=4)
            stitched = _latest_router_record().stitched
            answered = [
                s.tags["shard"]
                for s in stitched.spans
                if s.tags["status"] == "ok"
            ]
            assert answered
            for shard in answered:
                local = stitched.shard_traces[shard]
                assert len(local.blocks) >= 1
                for event in local.blocks:
                    assert event.strategy in ("graph", "brute", "adc")
                    assert event.tier in ("hot", "promoted", "cold")
                assert local.stats is not None

    def test_router_trace_merges_cluster_totals(self, tmp_path):
        with _open_router(tmp_path, 2) as router:
            _arm()
            query = np.random.default_rng(4).normal(size=DIM)
            result = router.search(query, 5, 0.0, float(N), seed=5)
            router_trace = _latest_router_record().stitched.router_trace
            assert router_trace is not None
            assert len(router_trace.shards) == 2
            assert router_trace.stats is not None
            assert (
                router_trace.stats.distance_evaluations
                == result.stats.distance_evaluations
            )
            assert router_trace.result_positions == tuple(
                int(p) for p in result.positions
            )
            assert "shard scatter:" in router_trace.render()

    def test_slow_log_captures_the_stitched_trace(self, tmp_path):
        with _open_router(tmp_path, 2) as router:
            _arm(slow_threshold=0.0)  # everything is slow
            router.search(np.zeros(DIM), 5, 0.0, float(N), seed=6)
            slow = [
                r
                for r in get_telemetry().slow.recent()
                if r.source == "router"
            ]
            assert slow
            assert slow[0].slow and slow[0].sampled
            assert slow[0].stitched is not None

    def test_unsampled_slow_query_still_logged_lightweight(self, tmp_path):
        with _open_router(tmp_path, 2) as router:
            _arm(sample_rate=0.0, slow_threshold=0.0)
            router.search(np.zeros(DIM), 5, 0.0, float(N), seed=6)
            slow = [
                r
                for r in get_telemetry().slow.recent()
                if r.source == "router"
            ]
            assert slow
            assert slow[0].slow and not slow[0].sampled
            assert slow[0].stitched is None

    def test_retries_are_tagged_on_the_shard_span(self, tmp_path):
        config = RouterConfig(seed=7, retries=1)
        with _open_router(tmp_path, 2, config=config) as router:
            _arm()
            query = np.random.default_rng(5).normal(size=DIM)
            with get_failpoints().scope(
                {"shard.scatter": Action("raise", "runtime", times=1)}
            ):
                router.search(query, 5, 0.0, float(N), seed=9)
            stitched = _latest_router_record().stitched
            retried = [s for s in stitched.spans if s.tags["retries"] > 0]
            assert len(retried) == 1
            assert retried[0].tags["status"] == "ok"  # retry absorbed it
            assert "retries 1" in stitched.render()
            # The router's own QueryTrace carries the retry count too.
            event = next(
                e
                for e in stitched.router_trace.shards
                if e.shard == retried[0].tags["shard"]
            )
            assert event.retries == 1

    def test_failed_shard_span_is_marked(self, tmp_path):
        config = RouterConfig(seed=7, retries=0, allow_partial=True)
        with _open_router(tmp_path, 2, config=config) as router:
            _arm()
            router.drain(1)
            result = router.search(np.zeros(DIM), 5, 0.0, float(N), seed=2)
            assert result.partial
            stitched = _latest_router_record().stitched
            failed = next(
                s for s in stitched.spans if s.tags["shard"] == 1
            )
            assert failed.tags["status"] == "FAILED"
            assert stitched.root.tags["partial"] is True
            assert 1 not in stitched.shard_traces


class TestHttpPropagation:
    def test_trace_context_round_trips_the_wire(self, tmp_path):
        """The stitched trace survives real HTTP scatter: the context
        travels in the /query payload and the worker's local trace rides
        back in the reply."""
        with _open_router(tmp_path, 2) as reference:
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
                _arm()
                query = np.random.default_rng(6).normal(size=DIM)
                want = None
                configure_telemetry(None)
                want = http_router.search(query, 5, 0.0, float(N), seed=8)
                _arm()
                got = http_router.search(query, 5, 0.0, float(N), seed=8)
                assert np.array_equal(want.positions, got.positions)
                assert np.array_equal(want.distances, got.distances)
                stitched = _latest_router_record().stitched
                assert len(stitched.spans) == 2
                answered = [
                    s.tags["shard"]
                    for s in stitched.spans
                    if s.tags["status"] == "ok"
                ]
                assert answered
                for shard in answered:
                    local = stitched.shard_traces[shard]
                    assert len(local.blocks) >= 1  # survived the wire
                    assert local.stats is not None
                http_router.close()  # closes every keep-alive socket
            finally:
                for server in servers:
                    server.shutdown()
                    server.server_close()


class TestFleetMetrics:
    def test_in_process_transports_report_none_sentinel(self, tmp_path):
        from repro.observability.metrics import get_registry

        with _open_router(tmp_path, 2) as router:
            for state in router._shards:
                assert state.transport.metrics_state() is None
            # With every worker sharing this process's registry, the
            # fleet state is exactly the router's own export — the None
            # sentinels prevent double counting.
            fleet = router.fleet_metrics_state()
            assert fleet == get_registry().export_state()

    def test_http_fleet_state_sums_worker_scrapes(self, tmp_path):
        from repro.observability.metrics import get_registry

        with _open_router(tmp_path, 2) as reference:
            servers = [
                make_worker_server(state.transport.service)
                for state in reference._shards
            ]
            for server in servers:
                threading.Thread(
                    target=server.serve_forever, daemon=True
                ).start()
            try:
                transports = [
                    HttpTransport(i, "127.0.0.1", s.server_address[1])
                    for i, s in enumerate(servers)
                ]
                http_router = ShardRouter(transports, reference.plan)
                http_router.search(np.zeros(DIM), 3, 0.0, float(N), seed=1)
                fleet = http_router.fleet_metrics_state()
                # Each scrape returns this process's registry (the test
                # shares one process), so the merge must equal the
                # aggregation of router + one scrape per worker.
                states = [get_registry().export_state()] + [
                    t.metrics_state() for t in transports
                ]
                want = aggregate_states(states)
                key = "service_requests_total"
                assert fleet[key]["value"] == pytest.approx(
                    want[key]["value"]
                )
                assert (
                    fleet["mbi_search_seconds"]["count"]
                    == want["mbi_search_seconds"]["count"]
                )
                http_router.close()  # closes every keep-alive socket
            finally:
                for server in servers:
                    server.shutdown()
                    server.server_close()
