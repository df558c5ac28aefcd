"""A zero-dependency HTTP frontend: one request handler, many route tables.

Built on :mod:`http.server` (``ThreadingHTTPServer``) so the serving layer
needs nothing beyond the standard library.  One handler thread per
connection feeds the service's admission queue; the queue — not the HTTP
layer — is the concurrency bottleneck by design, so overload turns into
fast 429s instead of unbounded thread pile-ups.

Every frontend — the single service (:func:`make_server`), the shard
worker (:func:`repro.sharding.make_worker_server`) and the shard router
(:func:`repro.sharding.make_router_server`) — is a **route table**
``{(method, path): route}`` served by the one handler here.  The handler
matches the path without its query string, checks the ``server.request``
failpoint, reads the JSON body of a POST, and maps exceptions to status
codes through :data:`_STATUS`: 400 malformed, 404 no such route, 408
deadline expired, 429 queue full, 503 draining/closed or a failed
required shard.  The endpoint table lives in ``docs/serving.md``.
"""

from __future__ import annotations

import json
import signal
import sys
import threading
import time
import urllib.parse
from functools import partial
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Any, Callable

import numpy as np

from ..exceptions import (
    AdmissionError,
    DeadlineExceededError,
    ReproError,
    ServiceClosedError,
    ShardUnavailableError,
)
from ..faultinject import failpoint
from ..observability.metrics import get_registry, render_prometheus
from ..observability.telemetry import get_telemetry, record_to_wire
from ..observability.trace import QueryTrace
from ..observability.tracing import TraceContext, trace_to_wire
from .service import IndexService

_MAX_BODY = 64 * 1024 * 1024

#: ``{(method, path): route(params, body) -> (status, payload)}``, where
#: ``params`` is the parsed query string, ``body`` a POST's JSON object
#: (``None`` for GET), and a ``str`` payload is sent as ``text/plain``.
Routes = dict[tuple[str, str], Callable[[dict, Any], tuple[int, Any]]]

#: Exception → status, first match wins; anything else propagates to
#: ``http.server``, which logs it and drops the connection.
_STATUS: tuple[tuple[type | tuple[type, ...], int], ...] = (
    (DeadlineExceededError, 408),
    (AdmissionError, 429),
    ((ServiceClosedError, ShardUnavailableError), 503),
    ((ReproError, ValueError, KeyError, TypeError), 400),
)


def make_server(
    service: IndexService, host: str = "127.0.0.1", port: int = 0
) -> ThreadingHTTPServer:
    """Build (but do not start) an HTTP server bound to ``service``.

    ``port=0`` binds an ephemeral port — read it back from
    ``server.server_address`` (handy for tests).
    """
    return route_server(service_routes(service), host, port)


def route_server(
    routes: Routes, host: str = "127.0.0.1", port: int = 0
) -> ThreadingHTTPServer:
    """Build (but do not start) a threaded server answering from ``routes``."""
    handler = type("Handler", (_Handler,), {"routes": routes})
    server = ThreadingHTTPServer((host, port), handler)
    server.daemon_threads = True
    return server


def serve_until_signal(
    server: ThreadingHTTPServer,
    close: Callable[[], object],
    *,
    announce: str | None = None,
    ready: Callable[[], object] | None = None,
) -> None:
    """Serve until ``SIGTERM``/``SIGINT``, then stop ``server`` and ``close()``.

    The handlers are installed before ``ready()`` runs, so a signal sent
    as soon as a supervisor hears "ready" still drains.  ``announce``
    is printed to stderr as ``signal N: <announce>``.  Call it from the
    main thread (only it may install signal handlers).
    """

    def _shutdown(signum: int, _frame: object) -> None:
        if announce is not None:
            print(f"signal {signum}: {announce}", file=sys.stderr)
        # shutdown() blocks until serve_forever()'s loop notices the
        # request — and that loop runs on this very thread, suspended
        # beneath this handler.  Hand the call to a helper thread so the
        # handler returns and the loop can exit.
        threading.Thread(target=server.shutdown, daemon=True).start()

    signal.signal(signal.SIGTERM, _shutdown)
    signal.signal(signal.SIGINT, _shutdown)
    if ready is not None:
        ready()
    try:
        server.serve_forever()
    finally:
        server.server_close()
        close()


class _Handler(BaseHTTPRequestHandler):
    routes: Routes  # injected by route_server
    protocol_version = "HTTP/1.1"

    # Silence per-request stderr logging; metrics cover observability.
    def log_message(self, format: str, *args: Any) -> None:  # noqa: A002
        pass

    def _dispatch(self) -> None:
        path, _, query = self.path.partition("?")
        try:
            act = failpoint("server.request")
        except Exception as error:  # noqa: BLE001 - injected, by design
            # The handler thread must survive for the next connection.
            self._reject(500, f"injected fault: {error}")
            return
        if act is not None and act.kind == "drop":
            # No response at all: what a crashed worker looks like.
            self.close_connection = True
            return
        route = self.routes.get((self.command, path))
        if route is None:
            self._reject(404, f"unknown path {self.path}")
            return
        try:
            body = self._read_json() if self.command == "POST" else None
            status, payload = route(urllib.parse.parse_qs(query), body)
        except Exception as error:
            status = next(
                (code for types, code in _STATUS if isinstance(error, types)),
                None,
            )
            if status is None:
                raise
            payload = {"error": str(error)}
            if isinstance(error, ShardUnavailableError):
                payload["shard"] = error.shard
        self._reply(status, payload)

    do_GET = do_POST = _dispatch  # http.server's per-method entry points

    def _reject(self, status: int, message: str) -> None:
        """Reply before any body is read; an unread POST body closes."""
        # Left on a keep-alive connection, the body's bytes would parse
        # as the next request.
        if self.command == "POST":
            self.close_connection = True
        self._reply(status, {"error": message})

    def _reply(self, status: int, payload: dict | str) -> None:
        if isinstance(payload, str):
            body = payload.encode("utf-8")
            content_type = "text/plain; charset=utf-8"
        else:
            body = json.dumps(payload).encode("utf-8")
            content_type = "application/json"
        self.send_response(status)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def _read_json(self) -> dict:
        try:
            length = int(self.headers.get("Content-Length", 0))
            if length <= 0 or length > _MAX_BODY:
                raise ValueError(f"bad Content-Length {length}")
        except ValueError:
            # The body stays unread, so the connection cannot be reused.
            self.close_connection = True
            raise
        payload = json.loads(self.rfile.read(length))
        if not isinstance(payload, dict):
            raise ValueError("request body must be a JSON object")
        return payload


# ------------------------------------------------------------------ routes


def shared_routes(target: Any, metrics_state: Callable[[], dict]) -> Routes:
    """The routes every frontend serves: ingest, metrics, trace buffers.

    ``target`` is anything with ``ingest``/``ingest_batch`` — an
    :class:`IndexService` or a :class:`~repro.sharding.ShardRouter`;
    ``metrics_state()`` is the registry state ``/metrics`` renders.
    """
    return {
        ("POST", "/ingest"): partial(_ingest, target),
        ("GET", "/metrics"): lambda params, body: (
            200,
            render_prometheus(metrics_state()),
        ),
        ("GET", "/metrics/json"): lambda params, body: (200, metrics_state()),
        ("GET", "/debug/trace/recent"): partial(_reply_records, "recent"),
        ("GET", "/debug/slow"): partial(_reply_records, "slow"),
    }


def query_args(body: dict) -> tuple[np.ndarray, int, float, float]:
    """``(query, k, t_start, t_end)`` from a ``POST /query`` body."""
    return (
        np.asarray(body["query"], dtype=np.float64),
        int(body.get("k", 10)),
        float(body.get("t_start", float("-inf"))),
        float(body.get("t_end", float("inf"))),
    )


def answer_to_wire(result: Any) -> dict:
    """The ``positions``/``distances``/``timestamps`` of a query reply."""
    return {
        "positions": [int(p) for p in result.positions],
        "distances": [float(d) for d in result.distances],
        "timestamps": [float(t) for t in result.timestamps],
    }


def _ingest(target: Any, params: dict, body: dict) -> tuple[int, dict]:
    """``POST /ingest``: one ``vector`` + ``timestamp``, or a batch."""
    if "vectors" in body:
        positions = target.ingest_batch(
            np.asarray(body["vectors"], dtype=np.float64),
            np.asarray(body["timestamps"], dtype=np.float64),
        )
        return 200, {"positions": [positions.start, positions.stop]}
    position = target.ingest(
        np.asarray(body["vector"], dtype=np.float64),
        float(body["timestamp"]),
    )
    return 200, {"position": position}


def _reply_records(which: str, params: dict, body: None) -> tuple[int, dict]:
    """Telemetry buffer ``which`` as ``{"records": [...]}`` (``?n=`` limits)."""
    n = None
    if "n" in params:
        raw = params["n"][0]
        if not raw.isdecimal():  # "-1" would slice off the oldest record
            raise ValueError(f"bad n {raw!r}")
        n = int(raw)
    # Looked up per request: configure_telemetry() swaps the instance.
    buffer = getattr(get_telemetry(), which)
    return 200, {
        "records": [record_to_wire(record) for record in buffer.recent(n)],
        "dropped": buffer.dropped,
    }


def service_routes(service: IndexService) -> Routes:
    """The single-service route table (what :func:`make_server` serves)."""
    return {
        **shared_routes(service, get_registry().export_state),
        ("GET", "/healthz"): lambda params, body: (
            503 if service.closed else 200,
            service.health(),
        ),
        ("POST", "/query"): partial(_query, service),
        ("POST", "/checkpoint"): lambda params, body: (
            200,
            {"snapshot": str(service.checkpoint())},
        ),
    }


def _query(service: IndexService, params: dict, body: dict) -> tuple[int, dict]:
    """Answer ``POST /query``.

    Without ``"seed"`` the request flows through the admission queue
    (bounded, deadline-aware, micro-batched) and entry-sampling
    randomness is drawn from the service's stream.  With an integer
    ``"seed"`` the query runs synchronously under
    ``np.random.default_rng(seed)`` instead — the deterministic path
    the shard router scatters on, so any two transports (or a
    recovered replica) answer bit-identically.

    A ``"trace"`` key carries a propagated
    :class:`~repro.observability.TraceContext` (the router sampled
    this query): the worker then records a full local
    :class:`QueryTrace`, attaches it to the reply as ``"trace"``
    plus an echoing ``"span"``, and files the query in its own
    telemetry buffers under the cluster-wide trace id.
    """
    query, k, t_start, t_end = query_args(body)
    telemetry = get_telemetry()
    ctx = TraceContext.from_wire(body["trace"]) if "trace" in body else None
    extra: dict[str, Any] = {}
    if "seed" in body:
        trace = QueryTrace() if ctx is not None else None
        started = time.perf_counter()
        result = service.search(
            query,
            k,
            t_start,
            t_end,
            rng=np.random.default_rng(int(body["seed"])),
            trace=trace,
        )
        if ctx is not None and trace is not None:
            seconds = time.perf_counter() - started
            telemetry.record(
                source="service",
                seconds=seconds,
                k=k,
                t_start=t_start,
                t_end=t_end,
                trace=trace,
                trace_id=ctx.trace_id,
            )
            extra["trace"] = trace_to_wire(trace)
            extra["span"] = {
                "trace_id": ctx.trace_id,
                "span_id": ctx.span_id,
                "parent_id": ctx.parent_id,
                "seconds": seconds,
            }
    else:
        # Head-sample at admission; the service's worker loop records
        # the trace (and any slow query) when the answer lands.
        trace = (
            QueryTrace()
            if telemetry.armed and telemetry.should_sample()
            else None
        )
        result = service.query(
            query,
            k,
            t_start,
            t_end,
            timeout=float(body["timeout"]) if "timeout" in body else None,
            trace=trace,
        )
    return 200, {
        **answer_to_wire(result),
        "blocks_searched": result.stats.blocks_searched,
        "graph_blocks": result.stats.graph_blocks,
        "nodes_visited": result.stats.nodes_visited,
        "distance_evaluations": result.stats.distance_evaluations,
        "window_size": result.stats.window_size,
        **extra,
    }
