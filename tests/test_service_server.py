"""In-process tests of the stdlib HTTP frontends (`repro serve`).

``TestEndpoints`` runs against the single-service frontend;
``TestRouterEndpoints`` inherits every case and reruns it against the
router frontend over a 2-shard in-process cluster, overriding the few
whose payload differs and adding the router-only ones.
"""

from __future__ import annotations

import contextlib
import http.client
import json
import math
import re
import socket
import threading
import urllib.error
import urllib.request

import numpy as np
import pytest

from repro.core.config import MBIConfig, SearchParams
from repro.faultinject import get_failpoints
from repro.graph.builder import GraphConfig
from repro.observability.telemetry import (
    TelemetryConfig,
    TraceRecord,
    configure_telemetry,
)
from repro.observability.tracing import from_wire
from repro.service import IndexService, ServiceConfig, make_server
from repro.service.server import service_routes
from repro.sharding import ShardRouter, make_router_server
from repro.sharding.server import router_routes

DIM = 6


def fast_config() -> MBIConfig:
    return MBIConfig(
        leaf_size=32,
        tau=0.5,
        graph=GraphConfig(n_neighbors=8, exact_threshold=100_000),
        search=SearchParams(epsilon=1.2, max_candidates=64),
    )


@contextlib.contextmanager
def running(server):
    """Serve ``server`` on a thread; yield its base URL."""
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    host, port = server.server_address[:2]
    try:
        yield f"http://{host}:{port}"
    finally:
        server.shutdown()
        server.server_close()
        thread.join(timeout=10)


def ingest_stream(target) -> None:
    rng = np.random.default_rng(0)
    for i in range(80):
        target.ingest(rng.standard_normal(DIM), float(i))


@pytest.fixture()
def served(tmp_path):
    svc = IndexService.open(
        tmp_path / "data",
        dim=DIM,
        mbi_config=fast_config(),
        config=ServiceConfig(fsync="never"),
    )
    ingest_stream(svc)
    with running(make_server(svc, port=0)) as base:
        yield svc, base
    svc.close()


def strict_loads(text: str | bytes):
    """``json.loads`` refusing ``NaN``/``Infinity``, which are not JSON."""

    def reject(token: str):
        raise ValueError(f"not JSON: {token}")

    return json.loads(text, parse_constant=reject)


def get(url: str):
    with urllib.request.urlopen(url, timeout=10) as response:
        return response.status, response.read().decode()


def post(url: str, payload: dict):
    request = urllib.request.Request(
        url,
        data=json.dumps(payload).encode(),
        headers={"Content-Type": "application/json"},
        method="POST",
    )
    with urllib.request.urlopen(request, timeout=10) as response:
        return response.status, json.loads(response.read())


def raw_exchange(base: str, request: bytes) -> bytes:
    """Send raw bytes on one connection; return everything until EOF."""
    host, port = base.removeprefix("http://").split(":")
    with socket.create_connection((host, int(port)), timeout=10) as sock:
        sock.sendall(request)
        chunks = []
        while chunk := sock.recv(65536):
            chunks.append(chunk)
    return b"".join(chunks)


class TestEndpoints:
    #: One request per route; POST bodies, or None for a GET.
    REQUESTS = {
        ("GET", "/healthz"): None,
        ("GET", "/metrics"): None,
        ("GET", "/metrics/json"): None,
        ("GET", "/debug/trace/recent"): None,
        ("GET", "/debug/slow"): None,
        ("POST", "/query"): {"query": [0.1] * DIM, "k": 3, "seed": 2},
        ("POST", "/ingest"): {"vector": [0.0] * DIM, "timestamp": 100.0},
        ("POST", "/checkpoint"): {},
    }

    @staticmethod
    def routes(target):
        return service_routes(target)

    def test_every_route_replies_strict_json(self, served):
        # Sampled traces carry an unbounded window (-inf, inf) and NaN
        # selection ratios: the wire must spell them as strings.
        target, base = served
        configure_telemetry(
            TelemetryConfig(
                sample_rate=1.0, rate_limit_per_sec=1e6, slow_threshold=0.0
            )
        )
        post(base + "/query", {"query": [0.1] * DIM, "k": 3, "seed": 1})
        assert set(self.REQUESTS) == set(self.routes(target))
        replies = {}
        for (method, path), payload in self.REQUESTS.items():
            request = urllib.request.Request(
                base + path,
                data=None if payload is None else json.dumps(payload).encode(),
                headers={"Content-Type": "application/json"},
                method=method,
            )
            with urllib.request.urlopen(request, timeout=10) as response:
                assert response.status == 200, path
                body = response.read()
            if path != "/metrics":  # Prometheus text, not JSON
                replies[path] = strict_loads(body)
        records = [
            from_wire(TraceRecord, r)
            for r in replies["/debug/trace/recent"]["records"]
        ]
        assert records and all(math.isinf(r.t_start) for r in records)

    def test_healthz(self, served):
        svc, base = served
        status, body = get(base + "/healthz")
        health = json.loads(body)
        assert status == 200
        assert health["status"] == "ok"
        assert health["records"] == 80

    def test_metrics_text_exposition(self, served):
        _, base = served
        status, body = get(base + "/metrics")
        assert status == 200
        assert "service_wal_appends_total" in body
        assert "service_inflight" in body

    def test_query_roundtrip(self, served):
        svc, base = served
        query = [0.1] * DIM
        status, body = post(base + "/query", {"query": query, "k": 4})
        assert status == 200
        assert len(body["positions"]) == 4
        assert body["distances"] == sorted(body["distances"])
        assert all(0 <= p < 80 for p in body["positions"])
        assert body["blocks_searched"] >= 1

    def test_query_with_window(self, served):
        _, base = served
        status, body = post(
            base + "/query",
            {"query": [0.0] * DIM, "k": 5, "t_start": 10.0, "t_end": 20.0},
        )
        assert status == 200
        assert all(10.0 <= t < 20.0 for t in body["timestamps"])

    def test_ingest_single_and_batch(self, served):
        svc, base = served
        status, body = post(
            base + "/ingest",
            {"vector": [1.0] * DIM, "timestamp": 100.0},
        )
        assert status == 200
        assert body["position"] == 80
        status, body = post(
            base + "/ingest",
            {
                "vectors": [[0.5] * DIM, [0.6] * DIM],
                "timestamps": [101.0, 102.0],
            },
        )
        assert status == 200
        assert body["positions"] == [81, 83]
        assert json.loads(get(base + "/healthz")[1])["records"] == 83

    def test_checkpoint_endpoint(self, served):
        svc, base = served
        status, body = post(base + "/checkpoint", {})
        assert status == 200
        assert body["snapshot"].endswith("snapshot-000000000080.npz")

    def test_malformed_request_is_400(self, served):
        _, base = served
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            post(base + "/query", {"k": 3})  # missing "query"
        assert excinfo.value.code == 400

    def test_wrong_dim_is_400(self, served):
        _, base = served
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            post(base + "/query", {"query": [0.0] * (DIM + 2), "k": 3})
        assert excinfo.value.code == 400

    def test_unknown_path_is_404(self, served):
        _, base = served
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            post(base + "/nope", {})
        assert excinfo.value.code == 404

    def test_out_of_order_ingest_is_400(self, served):
        _, base = served
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            post(base + "/ingest", {"vector": [0.0] * DIM, "timestamp": -1})
        assert excinfo.value.code == 400

    def test_draining_service_reports_503(self, served):
        svc, base = served
        svc.close()
        status = None
        try:
            status, body = get(base + "/healthz")
        except urllib.error.HTTPError as error:
            status = error.code
        assert status == 503
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            post(base + "/query", {"query": [0.0] * DIM, "k": 1})
        assert excinfo.value.code == 503

    @pytest.mark.parametrize("path", ["/debug/slow", "/debug/trace/recent"])
    def test_debug_buffers_reject_negative_n(self, served, path):
        _, base = served
        status, body = get(base + path + "?n=2")
        assert status == 200
        assert "records" in json.loads(body)
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            get(base + path + "?n=-1")
        assert excinfo.value.code == 400

    @pytest.mark.parametrize("length", ["99999999999", "-5", "abc"])
    def test_rejected_body_closes_the_connection(self, served, length):
        # Left open, the connection would parse the unread body as the
        # next request and send a second, unsolicited response.
        _, base = served
        data = raw_exchange(
            base,
            b"POST /query HTTP/1.1\r\nHost: x\r\n"
            b"Content-Length: " + length.encode() + b"\r\n\r\n"
            b"GARBAGE LINE\r\n\r\n",
        )
        head, _, rest = data.partition(b"\r\n\r\n")
        assert head.startswith(b"HTTP/1.1 400 ")
        length = int(re.search(rb"Content-Length: (\d+)", head).group(1))
        assert "error" in json.loads(rest[:length])
        assert rest[length:] == b""  # one reply, then EOF

    def test_request_failpoint_raise_is_500(self, served):
        _, base = served
        with get_failpoints().scope({"server.request": "raise"}):
            with pytest.raises(urllib.error.HTTPError) as excinfo:
                get(base + "/healthz")
            assert excinfo.value.code == 500
            assert get(base + "/healthz")[0] == 200

    def test_request_failpoint_drop_closes_without_reply(self, served):
        _, base = served
        host, port = base.removeprefix("http://").split(":")
        conn = http.client.HTTPConnection(host, int(port), timeout=10)
        try:
            with get_failpoints().scope({"server.request": "drop"}):
                conn.request("GET", "/healthz")
                with pytest.raises(http.client.RemoteDisconnected):
                    conn.getresponse()
        finally:
            conn.close()


class TestIngestRefusals:
    """A refused ``/ingest`` batch leaves the store and the WAL as they were."""

    @pytest.mark.parametrize(
        "vectors, timestamps",
        [
            ([[0.5] * DIM, [math.nan] * DIM], [100.0, 101.0]),
            ([[0.5] * DIM, [0.6] * DIM], [100.0, math.inf]),
            ([[0.5] * DIM, [0.6] * DIM], [100.0, "nan"]),  # to_wire's spelling
            ([[0.5] * DIM, [0.6] * DIM], [100.0, 99.0]),
        ],
    )
    def test_refused_batch_changes_nothing(self, served, vectors, timestamps):
        svc, base = served
        wal = {p.name: p.read_bytes() for p in svc.data_dir.glob("wal-*.log")}
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            post(base + "/ingest", {"vectors": vectors, "timestamps": timestamps})
        assert excinfo.value.code == 400
        assert len(svc.index) == 80
        assert {p.name: p.read_bytes() for p in svc.data_dir.glob("wal-*.log")} == wal
        status, body = post(
            base + "/ingest",
            {"vectors": [[0.5] * DIM, [0.6] * DIM], "timestamps": [100.0, 101.0]},
        )
        assert (status, body["positions"]) == (200, [80, 82])

    @pytest.mark.parametrize("timestamp", [math.inf, "inf", "-inf"])
    def test_infinite_timestamp_is_400(self, served, timestamp):
        svc, base = served
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            post(base + "/ingest", {"vector": [0.0] * DIM, "timestamp": timestamp})
        assert excinfo.value.code == 400
        assert len(svc.index) == 80
        status, body = post(
            base + "/ingest", {"vector": [0.0] * DIM, "timestamp": 100.0}
        )
        assert (status, body["position"]) == (200, 80)


class TestRouterEndpoints(TestEndpoints):
    """The same cases against ``make_router_server`` over 2 shards."""

    REQUESTS = {**TestEndpoints.REQUESTS, ("GET", "/shard/stats"): None}

    @staticmethod
    def routes(target):
        return router_routes(target)

    @pytest.fixture()
    def served(self, tmp_path):
        router = ShardRouter.open(
            tmp_path / "data",
            n_shards=2,
            dim=DIM,
            mbi_config=fast_config(),
            service_config=ServiceConfig(fsync="never"),
        )
        ingest_stream(router)
        with running(make_router_server(router, port=0)) as base:
            yield router, base
        router.close()

    def test_checkpoint_endpoint(self, served):
        _, base = served
        assert post(base + "/checkpoint", {}) == (200, {"checkpointed": 2})

    def test_draining_service_reports_503(self, served):
        router, base = served
        router.drain(0)
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            post(base + "/query", {"query": [0.0] * DIM, "k": 1})
        assert excinfo.value.code == 503
        assert json.loads(excinfo.value.read())["shard"] == 0

    def test_query_reports_shards(self, served):
        _, base = served
        status, body = post(base + "/query", {"query": [0.1] * DIM, "k": 4})
        assert status == 200
        assert body["partial"] is False
        assert sorted(body["queried_shards"]) == [0, 1]
        assert body["pruned_shards"] == []
        assert body["failed_shards"] == []

    def test_shard_stats(self, served):
        _, base = served
        status, body = get(base + "/shard/stats")
        stats = json.loads(body)
        assert status == 200
        assert stats["n_shards"] == 2
        assert stats["records"] == 80
