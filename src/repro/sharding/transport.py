"""Shard transports: how the router talks to one worker shard.

Two interchangeable implementations of :class:`ShardTransport`:

* :class:`InProcessTransport` — wraps an :class:`~repro.service.IndexService`
  living in the router's own process.  This is the reference transport:
  zero serialization, zero sockets, so bit-identity tests can compare any
  other transport against it.
* :class:`HttpTransport` — speaks to a worker process over the existing
  HTTP frontend (``repro.service.server`` plus the ``/shard/info``
  endpoint the sharded worker adds).  Connections are persistent
  (HTTP/1.1 keep-alive) and per-thread, so a scatter thread reuses one
  socket per shard.

Both transports answer searches with the same derived seed discipline
(the router hands each request an explicit integer seed), so the two
produce **bit-identical** results over the same shard data — the
property ``tests/test_sharding_router.py`` pins.

Transports raise ordinary ``OSError``/``TimeoutError`` style exceptions
on failure; mapping failures to retries, partial results, or
:class:`~repro.exceptions.ShardUnavailableError` is the router's job.
"""

from __future__ import annotations

import http.client
import json
import socket
import threading
from dataclasses import dataclass
from typing import Callable

import numpy as np

from ..core.results import QueryStats
from ..observability.trace import QueryTrace
from ..observability.tracing import TraceContext, trace_from_wire
from ..service.service import IndexService

__all__ = [
    "HttpTransport",
    "InProcessTransport",
    "ShardReply",
    "ShardTransport",
    "shard_info",
]


@dataclass(frozen=True)
class ShardReply:
    """One shard's answer to one TkNN query, in **local** positions.

    Attributes:
        positions: Top-k positions *local to the shard's store*; the
            router maps them back to global positions via the plan.
        distances: Ascending distances, aligned with ``positions``.
        timestamps: Timestamps, aligned with ``positions``.
        stats: The shard's :class:`~repro.core.results.QueryStats`.
        trace: The shard's local :class:`QueryTrace` (block spans, tier
            marks, ADC strategy), present only when the router
            propagated a trace context with the request.
    """

    positions: np.ndarray
    distances: np.ndarray
    timestamps: np.ndarray
    stats: QueryStats
    trace: QueryTrace | None = None


def shard_info(service: IndexService, stripe_size: int) -> dict:
    """The shard-side half of router attach: records + per-stripe bounds.

    Returns ``{"records", "dim", "stripe_bounds"}`` where
    ``stripe_bounds[j]`` is the inclusive ``(t_min, t_max)`` timestamp
    range of the shard's ``j``-th local stripe of ``stripe_size``
    records.  Served over HTTP as ``GET /shard/info?stripe_size=N`` by
    the sharded worker (:mod:`repro.sharding.worker`).
    """
    records = service.applied_records
    timestamps = service.index.store.timestamps[:records]
    bounds = [
        (
            float(timestamps[lo]),
            float(timestamps[min(lo + stripe_size, records) - 1]),
        )
        for lo in range(0, records, stripe_size)
    ]
    return {
        "records": int(records),
        "dim": int(service.index.dim),
        "stripe_bounds": bounds,
    }


class ShardTransport:
    """Protocol implemented by every way of reaching a worker shard."""

    #: The shard id this transport reaches.
    shard: int

    def info(self, stripe_size: int) -> dict:
        """Records + per-stripe time bounds (see :func:`shard_info`)."""
        raise NotImplementedError

    def ingest(self, vectors: np.ndarray, timestamps: np.ndarray) -> int:
        """Append a batch; returns the shard's new local record count."""
        raise NotImplementedError

    def search(
        self,
        query: np.ndarray,
        k: int,
        t_start: float,
        t_end: float,
        *,
        seed: int,
        trace_ctx: TraceContext | None = None,
    ) -> ShardReply:
        """Answer one TkNN query deterministically under ``seed``.

        ``trace_ctx`` (when the router sampled this query) asks the
        shard to record its local :class:`QueryTrace` and attach it to
        the reply; it never changes the answer.
        """
        raise NotImplementedError

    def metrics_state(self) -> dict | None:
        """The worker's metrics registry export, for fleet aggregation.

        Returns the :meth:`~repro.observability.MetricsRegistry.export_state`
        document, or ``None`` when the worker shares the caller's
        process-wide registry (the in-process transport) — the ``None``
        sentinel keeps :func:`repro.observability.aggregate_states` from
        double counting what the router's own registry already holds.
        """
        raise NotImplementedError

    def healthz(self) -> dict:
        """The shard's liveness document (may raise when unreachable)."""
        raise NotImplementedError

    def checkpoint(self) -> None:
        """Force a snapshot + WAL rotation on the shard."""
        raise NotImplementedError

    def close(self) -> None:
        """Release the transport (and, in-process, drain the service)."""
        raise NotImplementedError


class InProcessTransport(ShardTransport):
    """Reference transport: the shard's ``IndexService`` lives right here.

    ``reopen`` (when given) rebuilds the service from its data directory
    — the chaos harness uses it to model a shard process crash
    (``service.abort()``) followed by supervised recovery.
    """

    def __init__(
        self,
        shard: int,
        service: IndexService,
        *,
        reopen: Callable[[], IndexService] | None = None,
    ) -> None:
        """Wrap ``service`` as shard ``shard``."""
        self.shard = shard
        self.service = service
        self._reopen = reopen

    def info(self, stripe_size: int) -> dict:
        """Records + per-stripe time bounds straight off the store."""
        return shard_info(self.service, stripe_size)

    def ingest(self, vectors: np.ndarray, timestamps: np.ndarray) -> int:
        """Durable batch append via ``IndexService.ingest_batch``."""
        self.service.ingest_batch(np.asarray(vectors), np.asarray(timestamps))
        return self.service.applied_records

    def search(
        self,
        query: np.ndarray,
        k: int,
        t_start: float,
        t_end: float,
        *,
        seed: int,
        trace_ctx: TraceContext | None = None,
    ) -> ShardReply:
        """Synchronous read-locked search with the derived seed."""
        trace = QueryTrace() if trace_ctx is not None else None
        result = self.service.search(
            query,
            k,
            t_start,
            t_end,
            rng=np.random.default_rng(seed),
            trace=trace,
        )
        return ShardReply(
            positions=np.asarray(result.positions, dtype=np.int64),
            distances=np.asarray(result.distances, dtype=np.float64),
            timestamps=np.asarray(result.timestamps, dtype=np.float64),
            stats=result.stats,
            trace=trace,
        )

    def metrics_state(self) -> None:
        """``None``: the service reports into the caller's own registry."""
        return None

    def healthz(self) -> dict:
        """Liveness from the wrapped service (no socket involved)."""
        return self.service.health()

    def checkpoint(self) -> None:
        """Snapshot + WAL rotation on the wrapped service."""
        self.service.checkpoint()

    def close(self) -> None:
        """Drain and close the wrapped service."""
        self.service.close()

    def reopen(self) -> IndexService:
        """Recover the shard from its data directory after a crash."""
        if self._reopen is None:
            raise RuntimeError(
                f"shard {self.shard} transport has no reopen hook"
            )
        self.service = self._reopen()
        return self.service


class HttpTransport(ShardTransport):
    """A worker shard reached over the stdlib HTTP frontend.

    One persistent keep-alive connection per calling thread; a broken
    connection is discarded and rebuilt on the next call (the router's
    retry loop turns that into at most one failed attempt).
    """

    def __init__(
        self,
        shard: int,
        host: str,
        port: int,
        *,
        timeout: float | None = None,
    ) -> None:
        """Reach shard ``shard`` at ``http://host:port``.

        ``timeout`` is the per-request socket timeout (connect + read);
        ``None`` waits forever — the router then enforces its own
        scatter deadline instead.
        """
        self.shard = shard
        self.host = host
        self.port = port
        self.timeout = timeout
        self._local = threading.local()
        # Every connection ever handed out, across threads: close() must
        # reach the scatter-pool threads' keep-alive sockets too, not
        # just the calling thread's.
        self._conns: list[http.client.HTTPConnection] = []
        self._conns_lock = threading.Lock()

    def _connection(self) -> http.client.HTTPConnection:
        conn = getattr(self._local, "conn", None)
        if conn is None:
            conn = http.client.HTTPConnection(
                self.host, self.port, timeout=self.timeout
            )
            self._local.conn = conn
            with self._conns_lock:
                self._conns.append(conn)
        return conn

    def _request(
        self, method: str, path: str, payload: dict | None = None
    ) -> dict:
        body = None if payload is None else json.dumps(payload)
        conn = self._connection()
        try:
            conn.request(
                method,
                path,
                body=body,
                headers={"Content-Type": "application/json"}
                if body is not None
                else {},
            )
            response = conn.getresponse()
            data = response.read()
        except (OSError, http.client.HTTPException):
            # Drop the (possibly poisoned) connection before re-raising
            # so the next attempt starts on a fresh socket.
            self._local.conn = None
            conn.close()
            raise
        if response.status >= 400:
            raise ConnectionError(
                f"shard {self.shard} {method} {path} -> "
                f"{response.status}: {data[:200]!r}"
            )
        return json.loads(data)

    def info(self, stripe_size: int) -> dict:
        """``GET /shard/info`` (the sharded-worker-only endpoint)."""
        return self._request("GET", f"/shard/info?stripe_size={stripe_size}")

    def ingest(self, vectors: np.ndarray, timestamps: np.ndarray) -> int:
        """Batch ``POST /ingest``; returns the shard's new record count."""
        reply = self._request(
            "POST",
            "/ingest",
            {
                "vectors": np.asarray(vectors, dtype=np.float64).tolist(),
                "timestamps": np.asarray(
                    timestamps, dtype=np.float64
                ).tolist(),
            },
        )
        return int(reply["positions"][1])

    def search(
        self,
        query: np.ndarray,
        k: int,
        t_start: float,
        t_end: float,
        *,
        seed: int,
        trace_ctx: TraceContext | None = None,
    ) -> ShardReply:
        """Seeded ``POST /query``; decodes the reply into a ShardReply.

        JSON round-trips Python floats exactly (shortest-repr encode,
        exact decode), so the reply is bit-identical to the in-process
        answer over the same shard data.  A propagated ``trace_ctx``
        rides in the payload's ``"trace"`` key; the worker's local trace
        comes back in the reply and is decoded onto the ShardReply.
        """
        payload = {
            "query": np.asarray(query, dtype=np.float64).tolist(),
            "k": int(k),
            "t_start": float(t_start),
            "t_end": float(t_end),
            "seed": int(seed),
        }
        if trace_ctx is not None:
            payload["trace"] = trace_ctx.to_wire()
        reply = self._request("POST", "/query", payload)
        remote_trace = reply.get("trace")
        return ShardReply(
            positions=np.asarray(reply["positions"], dtype=np.int64),
            distances=np.asarray(reply["distances"], dtype=np.float64),
            timestamps=np.asarray(reply["timestamps"], dtype=np.float64),
            stats=QueryStats(
                blocks_searched=int(reply.get("blocks_searched", 0)),
                graph_blocks=int(reply.get("graph_blocks", 0)),
                nodes_visited=int(reply.get("nodes_visited", 0)),
                distance_evaluations=int(
                    reply.get("distance_evaluations", 0)
                ),
                window_size=int(reply.get("window_size", 0)),
            ),
            trace=(
                None if remote_trace is None else trace_from_wire(remote_trace)
            ),
        )

    def metrics_state(self) -> dict:
        """``GET /metrics/json``: the worker's registry export."""
        return self._request("GET", "/metrics/json")

    def healthz(self) -> dict:
        """``GET /healthz`` (raises when the worker is unreachable)."""
        return self._request("GET", "/healthz")

    def checkpoint(self) -> None:
        """``POST /checkpoint``."""
        self._request("POST", "/checkpoint", {})

    def close(self) -> None:
        """Close every persistent connection (the worker keeps running).

        Covers connections opened by other threads — the router's
        scatter pool holds one keep-alive socket per worker thread, and
        those threads are gone by the time the transport is closed.
        """
        with self._conns_lock:
            conns, self._conns = self._conns, []
        for conn in conns:
            try:
                conn.close()
            except (OSError, socket.error):  # pragma: no cover - best effort
                pass
        self._local.conn = None
