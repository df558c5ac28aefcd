"""The router's HTTP frontend: one port in front of N worker shards.

``repro serve --shards N`` binds this in the parent process.  It is the
single-service route table of :mod:`repro.service.server` re-pointed at
a :class:`ShardRouter` — same handler, same ``/ingest`` and ``/debug/*``
routes, same status codes — so clients need no changes.  It differs in
four routes: ``/healthz`` aggregates per-shard health rows, ``/metrics``
and ``/metrics/json`` serve the **fleet** state merged from every
reachable worker, ``/query`` replies carry ``partial`` and the
queried/pruned/failed shard lists, and ``GET /shard/stats`` adds the
topology document.  A failed required shard
(:class:`~repro.exceptions.ShardUnavailableError` without
``allow_partial``) is a 503 naming the ``shard``.
"""

from __future__ import annotations

from http.server import ThreadingHTTPServer

from ..service.server import (
    Routes,
    answer_to_wire,
    query_args,
    route_server,
    shared_routes,
)
from .router import ShardRouter

__all__ = ["make_router_server"]


def make_router_server(
    router: ShardRouter, host: str = "127.0.0.1", port: int = 0
) -> ThreadingHTTPServer:
    """Build (but do not start) the router frontend bound to ``router``.

    ``port=0`` binds an ephemeral port — read it back from
    ``server.server_address``.
    """
    return route_server(router_routes(router), host, port)


def router_routes(router: ShardRouter) -> Routes:
    """The router's route table (what :func:`make_router_server` serves)."""

    def healthz(params: dict, body: None) -> tuple[int, dict]:
        """``GET /healthz``: per-shard rows; 503 unless all ok or draining."""
        rows = router.health()
        ok = all(row["ok"] or row["draining"] for row in rows)
        return 200 if ok else 503, {
            "status": "ok" if ok else "degraded",
            "records": router.total_records,
            "shards": rows,
        }

    def query(params: dict, body: dict) -> tuple[int, dict]:
        """``POST /query``: scatter-gather; the reply carries ``partial``."""
        result = router.search(
            *query_args(body),
            seed=int(body["seed"]) if "seed" in body else None,
            allow_partial=(
                bool(body["allow_partial"]) if "allow_partial" in body else None
            ),
        )
        return 200, {
            **answer_to_wire(result),
            "partial": result.partial,
            "queried_shards": list(result.queried_shards),
            "pruned_shards": list(result.pruned_shards),
            "failed_shards": list(result.failed_shards),
            "blocks_searched": result.stats.blocks_searched,
            "distance_evaluations": result.stats.distance_evaluations,
        }

    def checkpoint(params: dict, body: dict) -> tuple[int, dict]:
        """``POST /checkpoint``: snapshot + WAL rotation on every shard."""
        router.checkpoint()
        return 200, {"checkpointed": router.n_shards}

    return {
        **shared_routes(router, router.fleet_metrics_state),
        ("GET", "/healthz"): healthz,
        ("GET", "/shard/stats"): lambda params, body: (200, router.stats()),
        ("POST", "/query"): query,
        ("POST", "/checkpoint"): checkpoint,
    }
