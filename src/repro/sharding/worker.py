"""Worker-shard processes: one full ``IndexService`` + HTTP server each.

A *worker* is the unit the router scatters to: a process that recovers
one shard's data directory (WAL + snapshots, optional tiering — exactly
the single-node serving stack of :mod:`repro.service`) and serves the
standard HTTP endpoints plus ``GET /shard/info``, the attach endpoint
:class:`~repro.sharding.router.ShardRouter` uses to reconstruct routing
state after a restart.  That inherited surface includes the telemetry
endpoints (``/metrics`` in Prometheus format, ``/metrics/json`` — which
the router scrapes into its fleet view — and the ``/debug/trace/recent``
/ ``/debug/slow`` buffers); arm a worker's sampler by passing a
:class:`~repro.observability.TelemetryConfig` inside ``service_config``
(it travels to the worker process with the pickled config).  Because
workers fork from the supervisor, per-worker fault injection for the
telemetry smoke tests works by setting ``REPRO_FAILPOINTS`` in the
parent's environment around ``start()``/``restart()`` of just that
worker (e.g. ``service.search=delay:0.4``).

:class:`ShardCluster` supervises N such processes from the parent: it
spawns them (ephemeral or fixed ports), waits for readiness, hands out
:class:`~repro.sharding.transport.HttpTransport` instances, and can
kill (``SIGKILL``, for chaos), restart, and drain them.  ``repro serve
--shards N`` is built on it.
"""

from __future__ import annotations

import multiprocessing
import os
import signal
from dataclasses import dataclass
from http.server import ThreadingHTTPServer
from pathlib import Path

from ..core.config import MBIConfig
from ..core.shardmap import ShardPlan
from ..faultinject import install_from_env
from ..service.server import (
    route_server,
    serve_until_signal,
    service_routes,
)
from ..service.service import IndexService, ServiceConfig
from .transport import HttpTransport, shard_info

__all__ = [
    "ShardCluster",
    "WorkerHandle",
    "make_worker_server",
    "run_worker",
    "spawn_workers",
]


def make_worker_server(
    service: IndexService, host: str = "127.0.0.1", port: int = 0
) -> ThreadingHTTPServer:
    """Build (not start) a shard-worker HTTP server bound to ``service``.

    Identical to :func:`repro.service.make_server` plus the
    ``/shard/info`` endpoint; ``port=0`` binds an ephemeral port (read
    it back from ``server.server_address``).
    """

    def info(params: dict, body: None) -> tuple[int, dict]:
        """``GET /shard/info?stripe_size=N``: what the router attaches by."""
        stripe_size = int(params.get("stripe_size", ["0"])[0])
        if stripe_size < 1:
            raise ValueError(f"bad stripe_size {stripe_size}")
        return 200, shard_info(service, stripe_size)

    routes = {**service_routes(service), ("GET", "/shard/info"): info}
    return route_server(routes, host, port)


def run_worker(
    shard: int,
    data_dir: str | Path,
    *,
    host: str = "127.0.0.1",
    port: int = 0,
    dim: int | None = None,
    metric: str = "euclidean",
    mbi_config: MBIConfig | None = None,
    service_config: ServiceConfig | None = None,
    ready_queue=None,
) -> None:
    """Worker-process main: recover the shard, serve HTTP until SIGTERM.

    Opens (recovering) the shard's :class:`IndexService` at ``data_dir``,
    binds the worker server, reports ``(shard, port)`` on
    ``ready_queue`` (when given), and serves until ``SIGTERM``/
    ``SIGINT`` — then drains the service and exits.  Run directly, or as
    a ``multiprocessing.Process`` target via :class:`ShardCluster`.
    """
    # Forked children inherit the parent's env but not a fresh module
    # import, so the import-time REPRO_FAILPOINTS parse has already run
    # (empty) in the parent — re-arm here so per-worker env injection
    # around start()/restart() works as documented above.
    install_from_env()
    service = IndexService.open(
        data_dir,
        dim=dim,
        metric=metric,
        mbi_config=mbi_config,
        config=service_config,
    )
    server = make_worker_server(service, host, port)

    def ready() -> None:
        """Report ``(shard, port)`` to the supervisor, if there is one."""
        if ready_queue is not None:
            ready_queue.put((shard, server.server_address[1]))

    serve_until_signal(server, service.close, ready=ready)


@dataclass
class WorkerHandle:
    """One supervised worker: its process, address, and data directory."""

    shard: int
    process: multiprocessing.Process
    host: str
    port: int
    data_dir: Path


class ShardCluster:
    """Supervisor for N worker-shard processes.

    Shard ``i`` lives in ``data_dir/shard-<i>`` — the same layout
    :meth:`ShardRouter.open` uses in-process, so a cluster and an
    in-process router over the same directory serve identical data.
    """

    def __init__(
        self,
        data_dir: str | Path,
        n_shards: int,
        *,
        host: str = "127.0.0.1",
        base_port: int = 0,
        dim: int | None = None,
        metric: str = "euclidean",
        mbi_config: MBIConfig | None = None,
        service_config: ServiceConfig | None = None,
    ) -> None:
        """Configure (but do not start) a cluster of ``n_shards`` workers.

        ``base_port=0`` gives every worker an ephemeral port; otherwise
        worker ``i`` binds ``base_port + i``.
        """
        self.data_dir = Path(data_dir)
        self.n_shards = n_shards
        self.host = host
        self.base_port = base_port
        self.dim = dim
        self.metric = metric
        self.mbi_config = mbi_config
        self.service_config = service_config
        self.workers: list[WorkerHandle] = []

    def shard_dir(self, shard: int) -> Path:
        """The data directory of shard ``shard``."""
        return self.data_dir / f"shard-{shard:03d}"

    def _spawn(self, shard: int, ready) -> multiprocessing.Process:
        """Start worker ``shard``; it reports ``(shard, port)`` on ``ready``."""
        process = multiprocessing.get_context().Process(
            target=run_worker,
            args=(shard, self.shard_dir(shard)),
            kwargs={
                "host": self.host,
                "port": 0 if self.base_port == 0 else self.base_port + shard,
                "dim": self.dim,
                "metric": self.metric,
                "mbi_config": self.mbi_config,
                "service_config": self.service_config,
                "ready_queue": ready,
            },
            daemon=True,
        )
        process.start()
        return process

    def start(self, timeout: float = 60.0) -> list[WorkerHandle]:
        """Spawn every worker and wait until all report ready.

        Raises ``TimeoutError`` (after terminating the stragglers) when
        a worker fails to bind within ``timeout`` seconds.
        """
        ready: multiprocessing.Queue = multiprocessing.get_context().Queue()
        processes = [self._spawn(shard, ready) for shard in range(self.n_shards)]
        ports: dict[int, int] = {}
        try:
            while len(ports) < self.n_shards:
                shard, port = ready.get(timeout=timeout)
                ports[shard] = port
        except Exception as error:
            for process in processes:
                process.terminate()
            raise TimeoutError(
                f"only {len(ports)}/{self.n_shards} workers became ready"
            ) from error
        self.workers = [
            WorkerHandle(
                shard=shard,
                process=processes[shard],
                host=self.host,
                port=ports[shard],
                data_dir=self.shard_dir(shard),
            )
            for shard in range(self.n_shards)
        ]
        return self.workers

    def transports(
        self, *, timeout: float | None = None
    ) -> list[HttpTransport]:
        """One :class:`HttpTransport` per running worker, in shard order."""
        return [
            HttpTransport(w.shard, w.host, w.port, timeout=timeout)
            for w in self.workers
        ]

    def plan(self, *, stripe_leaves: int = 1) -> ShardPlan:
        """The cluster's routing plan (requires ``mbi_config``)."""
        config = self.mbi_config or MBIConfig()
        return ShardPlan.from_config(
            self.n_shards, config, stripe_leaves=stripe_leaves
        )

    def kill(self, shard: int) -> None:
        """``SIGKILL`` one worker (the chaos shard-kill fault)."""
        handle = self.workers[shard]
        if handle.process.is_alive():
            os.kill(handle.process.pid, signal.SIGKILL)
        handle.process.join(timeout=30)

    def restart(self, shard: int, timeout: float = 60.0) -> WorkerHandle:
        """Respawn one (dead or stopped) worker; waits for readiness.

        The worker recovers its shard from WAL + snapshots; with
        ``base_port=0`` it may come back on a new ephemeral port, so
        callers must rebuild transports (the router re-attaches).
        """
        self.kill(shard)
        ready: multiprocessing.Queue = multiprocessing.get_context().Queue()
        process = self._spawn(shard, ready)
        shard_id, bound_port = ready.get(timeout=timeout)
        handle = WorkerHandle(
            shard=shard_id,
            process=process,
            host=self.host,
            port=bound_port,
            data_dir=self.shard_dir(shard),
        )
        self.workers[shard] = handle
        return handle

    def stop(self, timeout: float = 30.0) -> None:
        """Gracefully drain every worker (``SIGTERM``), escalating to kill."""
        for handle in self.workers:
            if handle.process.is_alive():
                handle.process.terminate()
        for handle in self.workers:
            handle.process.join(timeout=timeout)
            if handle.process.is_alive():  # pragma: no cover - escalation
                os.kill(handle.process.pid, signal.SIGKILL)
                handle.process.join(timeout=5)

    def __enter__(self) -> "ShardCluster":
        """Context-manager entry (does not start the workers)."""
        return self

    def __exit__(self, *exc_info: object) -> None:
        """Context-manager exit: stop the cluster."""
        self.stop()


def spawn_workers(
    data_dir: str | Path,
    n_shards: int,
    **kwargs,
) -> ShardCluster:
    """Convenience: build a :class:`ShardCluster` and start it."""
    cluster = ShardCluster(data_dir, n_shards, **kwargs)
    cluster.start()
    return cluster
