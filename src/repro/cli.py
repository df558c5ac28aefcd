"""Command-line interface for the repro library.

Subcommands::

    repro datasets                         list the registered datasets
    repro build DATASET -o index.npz       build an MBI index and snapshot it
    repro info index.npz                   describe a snapshot
    repro query index.npz --dataset NAME   run TkNN queries against a snapshot
    repro explain                          EXPLAIN-trace one TkNN query
    repro ingest --data-dir DIR            durably ingest into a service dir
    repro serve --data-dir DIR             serve TkNN over HTTP (recovers)
    repro serve --data-dir DIR --shards N  sharded scatter-gather serving
    repro shard stats --data-dir DIR       inspect a sharded data directory
    repro tier stats --data-dir DIR        inspect the cold block tier
    repro tier stats --url URL             scrape a live server's metrics
    repro slow --url URL                   render a server's slow-query log
    repro chaos                            seeded fault-injection smoke sweep

Every command is also reachable via ``python -m repro.cli``.
"""

from __future__ import annotations

import argparse
import sys
import time
from typing import Sequence

import numpy as np

from . import __version__
from .core.mbi import MultiLevelBlockIndex
from .core.persistence import load_index, save_index
from .datasets.registry import available_datasets, get_profile, load_dataset
from .eval.reporting import format_table
from .exceptions import ReproError


def build_parser() -> argparse.ArgumentParser:
    """The CLI argument parser (exposed for testing and docs)."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description=(
            "Multi-level Block Indexing for time-restricted kNN search "
            "(EDBT 2024 reproduction)"
        ),
    )
    parser.add_argument(
        "--version", action="version", version=f"repro {__version__}"
    )
    commands = parser.add_subparsers(dest="command", required=True)

    commands.add_parser("datasets", help="list the registered datasets")

    build = commands.add_parser(
        "build", help="build an MBI index over a registered dataset"
    )
    build.add_argument("dataset", help="dataset name (see `repro datasets`)")
    build.add_argument(
        "-o", "--output", required=True, help="snapshot path (.npz)"
    )
    build.add_argument(
        "--leaf-size", type=int, default=None, help="override S_L"
    )
    build.add_argument("--tau", type=float, default=None, help="override tau")
    build.add_argument(
        "--backend",
        choices=("graph", "ivf"),
        default=None,
        help="per-block index backend",
    )
    build.add_argument(
        "--max-items", type=int, default=None, help="truncate the dataset"
    )
    build.add_argument(
        "--parallel", action="store_true", help="parallel block merging"
    )

    info = commands.add_parser("info", help="describe an index snapshot")
    info.add_argument("snapshot", help="snapshot path (.npz)")

    query = commands.add_parser(
        "query", help="run TkNN queries against a snapshot"
    )
    query.add_argument("snapshot", help="snapshot path (.npz)")
    query.add_argument(
        "--dataset",
        required=True,
        help="dataset whose held-out queries to use",
    )
    query.add_argument("-k", type=int, default=10, help="neighbors per query")
    query.add_argument(
        "--t-start", type=float, default=float("-inf"), help="window start"
    )
    query.add_argument(
        "--t-end", type=float, default=float("inf"), help="window end"
    )
    query.add_argument(
        "-n", "--num-queries", type=int, default=5, help="queries to run"
    )

    explain = commands.add_parser(
        "explain",
        help="trace one TkNN query end to end (block selection, "
        "per-block strategy, timings, distance counts)",
    )
    explain.add_argument(
        "--dataset",
        default=None,
        help="registry dataset to build over (default: a quick synthetic "
        "dataset generated in-process)",
    )
    explain.add_argument(
        "--n", type=int, default=2000, help="synthetic dataset size"
    )
    explain.add_argument(
        "--dim", type=int, default=16, help="synthetic dimensionality"
    )
    explain.add_argument(
        "--leaf-size", type=int, default=125, help="override S_L"
    )
    explain.add_argument("--tau", type=float, default=0.5, help="override tau")
    explain.add_argument("-k", type=int, default=10, help="neighbors")
    explain.add_argument(
        "--fraction",
        type=float,
        default=0.4,
        help="window fraction of the timeline (centered)",
    )
    explain.add_argument(
        "--max-items", type=int, default=None, help="truncate the dataset"
    )
    explain.add_argument(
        "--seed", type=int, default=0, help="query / entry-sampling seed"
    )
    explain.add_argument(
        "--metrics",
        action="store_true",
        help="also dump the process metrics registry after the trace",
    )

    ingest = commands.add_parser(
        "ingest",
        help="durably ingest vectors into a service data directory "
        "(WAL + snapshot); resumes where a previous ingest stopped",
    )
    _add_service_arguments(ingest)
    ingest.add_argument(
        "--dataset",
        default=None,
        help="registry dataset to ingest (default: synthetic)",
    )
    ingest.add_argument(
        "--n", type=int, default=2000, help="synthetic dataset size"
    )
    ingest.add_argument(
        "--dim", type=int, default=16, help="synthetic dimensionality"
    )
    ingest.add_argument(
        "--max-items", type=int, default=None, help="truncate the dataset"
    )
    ingest.add_argument(
        "--seed", type=int, default=0, help="synthetic dataset seed"
    )
    ingest.add_argument(
        "--no-final-snapshot",
        action="store_true",
        help="skip the final checkpoint (recovery will replay the WAL)",
    )

    serve = commands.add_parser(
        "serve",
        help="recover a service data directory and serve TkNN over HTTP "
        "(stdlib-only; see docs/serving.md for the endpoints)",
    )
    _add_service_arguments(serve)
    serve.add_argument("--host", default="127.0.0.1", help="bind address")
    serve.add_argument("--port", type=int, default=8780, help="bind port")
    serve.add_argument(
        "--dim",
        type=int,
        default=None,
        help="dimensionality when starting a fresh (empty) data dir",
    )
    serve.add_argument(
        "--metric", default="euclidean", help="metric for a fresh data dir"
    )
    serve.add_argument(
        "--max-queue", type=int, default=1024, help="admission queue bound"
    )
    serve.add_argument(
        "--max-batch", type=int, default=32, help="micro-batch size cap"
    )
    serve.add_argument(
        "--timeout",
        type=float,
        default=None,
        help="default per-request deadline in seconds",
    )
    serve.add_argument(
        "--shards",
        type=int,
        default=0,
        help="serve N worker-shard processes behind a scatter-gather "
        "router on --port (workers bind --port+1 .. --port+N; "
        "0 = single-process serving; see docs/sharding.md)",
    )
    serve.add_argument(
        "--scatter-timeout",
        type=float,
        default=None,
        help="seconds the router waits per shard before declaring it "
        "slow (sharded serving only; default: wait forever)",
    )
    serve.add_argument(
        "--allow-partial",
        action="store_true",
        help="degrade to partial results (with the `partial` flag set) "
        "instead of failing queries when a shard stays down",
    )
    serve.add_argument(
        "--sample-rate",
        type=float,
        default=0.01,
        help="fraction of queries that record a full trace into "
        "/debug/trace/recent (head sampling, rate-limited; 0 disables)",
    )
    serve.add_argument(
        "--slow-threshold",
        type=float,
        default=0.25,
        help="seconds above which a query is captured in /debug/slow "
        "(negative disables the slow-query log)",
    )
    serve.add_argument(
        "--no-telemetry",
        action="store_true",
        help="disable sampled tracing and the slow-query log entirely "
        "(/metrics stays on; it is passive counters)",
    )

    shard = commands.add_parser(
        "shard",
        help="inspect sharded serving state (topology, per-shard "
        "occupancy; see docs/sharding.md)",
    )
    shard_actions = shard.add_subparsers(dest="shard_command", required=True)
    shard_stats = shard_actions.add_parser(
        "stats",
        help="describe a sharded data directory (one row per shard: "
        "records, stripes, time range)",
    )
    shard_stats.add_argument(
        "--data-dir", required=True, help="sharded state directory"
    )
    shard_stats.add_argument(
        "--leaf-size",
        type=int,
        default=125,
        help="S_L the directory was created with (fixes the stripe size)",
    )

    tier = commands.add_parser(
        "tier",
        help="inspect tiered block storage (cold files, cache counters)",
    )
    tier_actions = tier.add_subparsers(dest="tier_command", required=True)
    tier_stats = tier_actions.add_parser(
        "stats",
        help="list the cold blocks of a service data directory "
        "(one row per committed cold file, plus totals)",
    )
    tier_stats.add_argument(
        "--data-dir", default=None, help="service state directory"
    )
    tier_stats.add_argument(
        "--url",
        default=None,
        help="scrape a running server's /metrics/json instead of reading "
        "a data directory (against a router this shows the fleet view)",
    )

    slow = commands.add_parser(
        "slow",
        help="fetch and render a running server's slow-query log (or its "
        "recently sampled traces) over HTTP",
    )
    slow.add_argument(
        "--url",
        required=True,
        help="server base URL, e.g. http://127.0.0.1:8780 (single-shard "
        "frontend or sharded router)",
    )
    slow.add_argument(
        "--recent",
        action="store_true",
        help="show /debug/trace/recent (the sampled-trace ring buffer) "
        "instead of /debug/slow",
    )
    slow.add_argument(
        "-n", type=int, default=10, help="records to show (newest first)"
    )

    chaos = commands.add_parser(
        "chaos",
        help="run seeded fault-injection smoke sweeps (crash consistency "
        "+ differential oracle; see docs/testing.md)",
    )
    chaos.add_argument(
        "--crash-seeds",
        type=int,
        default=10,
        help="number of crash-consistency schedules to run (from --seed)",
    )
    chaos.add_argument(
        "--diff-seeds",
        type=int,
        default=2,
        help="number of differential-oracle workloads to run (from --seed)",
    )
    chaos.add_argument(
        "--seed", type=int, default=0, help="first seed of the sweep"
    )
    chaos.add_argument(
        "--shard-seeds",
        type=int,
        default=4,
        help="number of sharded-serving schedules to run (from --seed)",
    )
    chaos.add_argument(
        "--crash-seed",
        type=int,
        default=None,
        help="re-run exactly one crash-consistency seed (reproduction mode)",
    )
    chaos.add_argument(
        "--diff-seed",
        type=int,
        default=None,
        help="re-run exactly one differential-oracle seed",
    )
    chaos.add_argument(
        "--shard-seed",
        type=int,
        default=None,
        help="re-run exactly one sharded-serving seed",
    )
    return parser


def _add_service_arguments(parser: argparse.ArgumentParser) -> None:
    """Arguments shared by the durable-service commands."""
    parser.add_argument(
        "--data-dir", required=True, help="service state directory"
    )
    parser.add_argument(
        "--fsync",
        choices=("always", "interval", "never"),
        default="always",
        help="WAL durability policy (see docs/serving.md)",
    )
    parser.add_argument(
        "--snapshot-every",
        type=int,
        default=0,
        help="records between automatic checkpoints (0 = manual only)",
    )
    parser.add_argument(
        "--leaf-size", type=int, default=125, help="S_L for a fresh index"
    )
    parser.add_argument(
        "--tau", type=float, default=0.5, help="tau for a fresh index"
    )
    parser.add_argument(
        "--memory-budget-mb",
        type=float,
        default=None,
        help="hot-tier byte budget; blocks over budget are demoted to "
        "memory-mapped cold files under <data-dir>/tiers "
        "(default: everything stays in memory)",
    )
    parser.add_argument(
        "--compact-interval",
        type=float,
        default=None,
        help="seconds between background compaction sweeps (requires "
        "--memory-budget-mb; default: compact only at checkpoints)",
    )
    parser.add_argument(
        "--cold-codes",
        action="store_true",
        help="compressed cold-tier search: demotions write PQ code "
        "sidecars and wide cold-window queries answer with an ADC scan "
        "+ exact memmap rerank instead of promoting (requires "
        "--memory-budget-mb to matter; see docs/quantization.md)",
    )


def _cmd_datasets(_: argparse.Namespace) -> int:
    rows = []
    for name in available_datasets():
        profile = get_profile(name)
        rows.append(
            [
                name,
                profile.paper_name,
                f"{profile.spec.n_items:,}",
                profile.spec.dim,
                profile.spec.metric,
                profile.leaf_size,
                profile.tau,
            ]
        )
    print(
        format_table(
            ["name", "stands for", "items", "dim", "metric", "S_L", "tau"],
            rows,
        )
    )
    return 0


def _cmd_build(args: argparse.Namespace) -> int:
    profile = get_profile(args.dataset)
    dataset = load_dataset(args.dataset)
    overrides = {}
    if args.leaf_size is not None:
        overrides["leaf_size"] = args.leaf_size
    if args.tau is not None:
        overrides["tau"] = args.tau
    if args.backend is not None:
        overrides["backend"] = args.backend
    if args.parallel:
        overrides["parallel"] = True
    config = profile.mbi_config(**overrides)

    vectors = dataset.vectors
    timestamps = dataset.timestamps
    if args.max_items is not None:
        vectors = vectors[: args.max_items]
        timestamps = timestamps[: args.max_items]

    print(
        f"building MBI over {len(vectors):,} vectors "
        f"(dim {dataset.spec.dim}, {dataset.metric_name}, "
        f"S_L={config.leaf_size}, tau={config.tau}, "
        f"backend={config.backend}) ..."
    )
    index = MultiLevelBlockIndex(
        dataset.spec.dim, dataset.metric_name, config
    )
    started = time.perf_counter()
    index.extend(vectors, timestamps)
    elapsed = time.perf_counter() - started
    path = save_index(index, args.output)
    usage = index.memory_usage()
    print(
        f"built {index.num_blocks} blocks in {elapsed:.1f}s; "
        f"index {usage['total'] / 1e6:.1f} MB "
        f"({usage['graphs'] / 1e6:.1f} MB of block indexes); "
        f"snapshot: {path}"
    )
    return 0


def _cmd_info(args: argparse.Namespace) -> int:
    index = load_index(args.snapshot)
    usage = index.memory_usage()
    config = index.config
    print(f"snapshot        : {args.snapshot}")
    print(f"vectors         : {len(index):,} x {index.dim} ({index.metric.name})")
    print(
        f"time range      : [{index.store.timestamps[0]:.6g}, "
        f"{index.store.latest_timestamp:.6g}]"
        if len(index)
        else "time range      : (empty)"
    )
    print(f"blocks          : {index.num_blocks} ({index.num_leaves} leaves)")
    print(
        f"config          : S_L={config.leaf_size} tau={config.tau} "
        f"backend={config.backend} selection={config.selection_mode}"
    )
    print(
        f"memory          : {usage['total'] / 1e6:.1f} MB total "
        f"({usage['vectors'] / 1e6:.1f} data + "
        f"{usage['graphs'] / 1e6:.1f} index)"
    )
    rows = [
        [
            block.index,
            block.height,
            f"[{block.positions.start}, {block.positions.stop})",
            "built" if block.is_built else "open",
            f"{block.nbytes() / 1e3:.0f} KB",
        ]
        for block in index.iter_blocks()
    ]
    print()
    print(format_table(["block", "height", "positions", "state", "index"], rows))
    return 0


def _cmd_query(args: argparse.Namespace) -> int:
    index = load_index(args.snapshot)
    dataset = load_dataset(args.dataset)
    if dataset.spec.dim != index.dim:
        print(
            f"error: dataset {args.dataset!r} has dim {dataset.spec.dim}, "
            f"index has {index.dim}",
            file=sys.stderr,
        )
        return 2
    n = min(args.num_queries, len(dataset.queries))
    for i in range(n):
        started = time.perf_counter()
        result = index.search(
            dataset.queries[i], args.k, args.t_start, args.t_end
        )
        elapsed_ms = (time.perf_counter() - started) * 1e3
        print(
            f"query {i}: {len(result)} results in {elapsed_ms:.1f} ms "
            f"({result.stats.blocks_searched} blocks, "
            f"{result.stats.distance_evaluations} distance evals)"
        )
        for position, distance, timestamp in zip(
            result.positions, result.distances, result.timestamps
        ):
            print(f"    #{position}  d={distance:.4f}  t={timestamp:.6g}")
    return 0


def _cmd_explain(args: argparse.Namespace) -> int:
    from .core.config import MBIConfig
    from .datasets.synthetic import SyntheticSpec, generate
    from .graph.builder import GraphConfig
    from .observability.metrics import get_registry

    if args.dataset is not None:
        profile = get_profile(args.dataset)
        dataset = load_dataset(args.dataset)
        config = profile.mbi_config(leaf_size=args.leaf_size, tau=args.tau)
    else:
        spec = SyntheticSpec(
            n_items=args.n,
            n_queries=8,
            dim=args.dim,
            generator="drifting_clusters",
            n_clusters=8,
            seed=args.seed,
        )
        dataset = generate(spec, name="explain-synthetic")
        config = MBIConfig(
            leaf_size=args.leaf_size,
            tau=args.tau,
            # Small blocks build fastest through the exact builder.
            graph=GraphConfig(n_neighbors=8, exact_threshold=100_000),
        )

    vectors = dataset.vectors
    timestamps = dataset.timestamps
    if args.max_items is not None:
        vectors = vectors[: args.max_items]
        timestamps = timestamps[: args.max_items]

    print(
        f"building MBI over {len(vectors):,} vectors "
        f"(dim {dataset.spec.dim}, {dataset.metric_name}, "
        f"S_L={config.leaf_size}, tau={config.tau}) ..."
    )
    index = MultiLevelBlockIndex(dataset.spec.dim, dataset.metric_name, config)
    index.extend(vectors, timestamps)

    # A centered window of the requested fraction: straddling the root's
    # midpoint makes the selection walk descend, so the trace shows the
    # multi-block structure the tau-rule produces.
    fraction = min(max(args.fraction, 0.01), 1.0)
    t_lo, t_hi = float(timestamps[0]), float(timestamps[-1])
    mid = (t_lo + t_hi) / 2
    half = (t_hi - t_lo) * fraction / 2
    t_start, t_end = mid - half, mid + half

    rng = np.random.default_rng(args.seed)
    query = dataset.queries[args.seed % max(1, len(dataset.queries))]
    trace = index.explain(
        query, args.k, t_start, t_end, rng=rng
    )
    print()
    print(trace.render())
    if args.metrics:
        print()
        print("process metrics registry:")
        print(get_registry().render())
    return 0


def _service_mbi_config(args: argparse.Namespace):
    from .core.config import MBIConfig
    from .graph.builder import GraphConfig

    return MBIConfig(
        leaf_size=args.leaf_size,
        tau=args.tau,
        # Small blocks build fastest through the exact builder.
        graph=GraphConfig(n_neighbors=8, exact_threshold=100_000),
        cold_codes=getattr(args, "cold_codes", False),
    )


def _telemetry_config(args: argparse.Namespace):
    """The :class:`TelemetryConfig` the serve flags describe (or None)."""
    from .observability.telemetry import TelemetryConfig

    rate = getattr(args, "sample_rate", None)
    slow = getattr(args, "slow_threshold", None)
    if rate is None and slow is None:
        # Commands without the serve flags (ingest) leave the
        # process-wide default (disarmed) untouched.
        return None
    if getattr(args, "no_telemetry", False):
        return TelemetryConfig(sample_rate=0.0, slow_threshold=None)
    return TelemetryConfig(
        sample_rate=min(1.0, max(0.0, rate or 0.0)),
        slow_threshold=(slow if slow is not None and slow >= 0 else None),
    )


def _service_config(args: argparse.Namespace):
    from .service import ServiceConfig

    extras = {}
    if getattr(args, "max_queue", None) is not None:
        extras["max_queue"] = args.max_queue
    if getattr(args, "max_batch", None) is not None:
        extras["max_batch"] = args.max_batch
    if getattr(args, "timeout", None) is not None:
        extras["default_timeout"] = args.timeout
    if getattr(args, "memory_budget_mb", None) is not None:
        extras["memory_budget_mb"] = args.memory_budget_mb
    if getattr(args, "compact_interval", None) is not None:
        extras["compact_interval"] = args.compact_interval
    if getattr(args, "cold_codes", False):
        extras["cold_codes"] = True
    telemetry = _telemetry_config(args)
    if telemetry is not None:
        extras["telemetry"] = telemetry
    return ServiceConfig(
        fsync=args.fsync,
        snapshot_every=args.snapshot_every,
        **extras,
    )


def _ingest_source(args: argparse.Namespace):
    """The ``(vectors, timestamps, dim, metric)`` stream to ingest."""
    if args.dataset is not None:
        dataset = load_dataset(args.dataset)
        vectors, timestamps = dataset.vectors, dataset.timestamps
        dim, metric = dataset.spec.dim, dataset.metric_name
    else:
        from .datasets.synthetic import SyntheticSpec, generate

        spec = SyntheticSpec(
            n_items=args.n,
            n_queries=8,
            dim=args.dim,
            generator="drifting_clusters",
            n_clusters=8,
            seed=args.seed,
        )
        dataset = generate(spec, name="ingest-synthetic")
        vectors, timestamps = dataset.vectors, dataset.timestamps
        dim, metric = dataset.spec.dim, dataset.metric_name
    if args.max_items is not None:
        vectors = vectors[: args.max_items]
        timestamps = timestamps[: args.max_items]
    return vectors, timestamps, dim, metric


def _cmd_ingest(args: argparse.Namespace) -> int:
    from .service import IndexService

    vectors, timestamps, dim, metric = _ingest_source(args)
    service = IndexService.open(
        args.data_dir,
        dim=dim,
        metric=metric,
        mbi_config=_service_mbi_config(args),
        config=_service_config(args),
    )
    already = service.applied_records
    if already:
        print(f"resuming: {already:,} records already durable")
        vectors = vectors[already:]
        timestamps = timestamps[already:]
    started = time.perf_counter()
    with service:
        for vector, timestamp in zip(vectors, timestamps):
            service.ingest(vector, float(timestamp))
        elapsed = time.perf_counter() - started
        if not args.no_final_snapshot:
            service.close(checkpoint=True)
        total = service.applied_records
    rate = len(vectors) / elapsed if elapsed > 0 else float("inf")
    print(
        f"ingested {len(vectors):,} records in {elapsed:.2f}s "
        f"({rate:,.0f} rec/s, fsync={args.fsync}); "
        f"{total:,} records durable in {args.data_dir}"
    )
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    from .service import IndexService, make_server, serve_until_signal

    if args.shards:
        return _cmd_serve_sharded(args)
    service = IndexService.open(
        args.data_dir,
        dim=args.dim,
        metric=args.metric,
        mbi_config=_service_mbi_config(args),
        config=_service_config(args),
    )
    report = service.last_recovery
    if report is not None and (
        report.snapshot_path is not None or report.replayed_records
    ):
        print(
            f"recovered {service.applied_records:,} records "
            f"(snapshot: {report.snapshot_records:,}, "
            f"WAL replay: {report.replayed_records:,}"
            f"{', torn tail discarded' if report.torn_tail else ''})"
        )
    server = make_server(service, args.host, args.port)
    host, port = server.server_address[:2]
    print(
        f"serving {service.applied_records:,} records "
        f"(dim {service.index.dim}) on http://{host}:{port} — "
        "endpoints: /healthz /metrics /query /ingest /checkpoint "
        "/debug/trace/recent /debug/slow"
    )
    serve_until_signal(server, service.close, announce="draining ...")
    print("drained; bye")
    return 0


def _cmd_serve_sharded(args: argparse.Namespace) -> int:
    """``repro serve --shards N``: workers + scatter-gather router."""
    from .observability.telemetry import configure_telemetry
    from .service import serve_until_signal
    from .sharding import (
        RouterConfig,
        ShardCluster,
        ShardRouter,
        make_router_server,
    )

    # Workers arm through the pickled service config; the router process
    # holds no IndexService, so arm its sampler explicitly (it mints the
    # cluster-wide trace ids and owns the stitched slow-query log).
    telemetry = _telemetry_config(args)
    if telemetry is not None:
        configure_telemetry(telemetry)
    cluster = ShardCluster(
        args.data_dir,
        args.shards,
        host=args.host,
        base_port=args.port + 1,
        dim=args.dim,
        metric=args.metric,
        mbi_config=_service_mbi_config(args),
        service_config=_service_config(args),
    )
    cluster.start()
    router = None
    try:
        router = ShardRouter(
            cluster.transports(timeout=args.scatter_timeout),
            cluster.plan(),
            config=RouterConfig(
                scatter_timeout=args.scatter_timeout,
                allow_partial=args.allow_partial,
            ),
        )
        server = make_router_server(router, args.host, args.port)
    except BaseException:
        # Never leak worker processes when the frontend fails to come
        # up (e.g. the router port is already in use).
        if router is not None:
            router.detach()
        cluster.stop()
        raise
    host, port = server.server_address[:2]
    print(
        f"serving {router.total_records:,} records across "
        f"{args.shards} shards on http://{host}:{port} "
        f"(workers on ports {args.port + 1}..{args.port + args.shards}) — "
        "endpoints: /healthz /metrics /query /ingest /checkpoint "
        "/shard/stats /debug/trace/recent /debug/slow"
    )

    def close() -> None:
        router.close()
        cluster.stop()

    serve_until_signal(server, close, announce="draining shards ...")
    print("drained; bye")
    return 0


def _cmd_shard(args: argparse.Namespace) -> int:
    """``repro shard stats``: offline inspection of a sharded data dir."""
    from pathlib import Path

    from .core.config import MBIConfig
    from .core.shardmap import ShardPlan
    from .service import IndexService, ServiceConfig
    from .sharding.transport import shard_info

    base = Path(args.data_dir)
    shard_dirs = sorted(base.glob("shard-*"))
    if not shard_dirs:
        print(
            f"no shard directories under {base} — expected shard-000, "
            "shard-001, ... (create them with `repro serve --shards N`)"
        )
        return 1
    plan = ShardPlan.from_config(
        len(shard_dirs), MBIConfig(leaf_size=args.leaf_size)
    )
    rows = []
    total = 0
    for shard, shard_dir in enumerate(shard_dirs):
        service = IndexService.open(
            shard_dir, config=ServiceConfig(fsync="never")
        )
        try:
            info = shard_info(service, plan.stripe_size)
        finally:
            service.close(checkpoint=False)
        bounds = info["stripe_bounds"]
        total += info["records"]
        rows.append(
            [
                shard,
                shard_dir.name,
                f"{info['records']:,}",
                len(bounds),
                f"{bounds[0][0]:.6g}" if bounds else "-",
                f"{bounds[-1][1]:.6g}" if bounds else "-",
            ]
        )
    print(f"sharded dir     : {base}")
    print(f"shards          : {len(shard_dirs)}")
    print(f"stripe size     : {plan.stripe_size} records (S_L={args.leaf_size})")
    print(f"total records   : {total:,}")
    print()
    print(
        format_table(
            ["shard", "dir", "records", "stripes", "t_min", "t_max"], rows
        )
    )
    return 0


def _fetch_json(url: str, timeout: float = 30.0):
    """GET ``url`` and decode the JSON body (stdlib only)."""
    import json
    import urllib.request

    with urllib.request.urlopen(url, timeout=timeout) as response:
        return json.loads(response.read())


def _tier_stats_from_url(url: str) -> int:
    """``repro tier stats --url``: render a live server's tier metrics.

    Scrapes ``/metrics/json`` (against a router this is the merged fleet
    state) and prints the tier counters/gauges plus a latency-quantile
    table for every histogram in the registry.
    """
    from .observability.metrics import quantile_from_buckets

    state = _fetch_json(f"{url.rstrip('/')}/metrics/json")
    scalars = []
    histograms = []
    for name in sorted(state):
        entry = state[name]
        if entry["kind"] == "histogram":
            total = int(entry["count"])
            mean = entry["sum"] / total if total else float("nan")
            quantiles = [
                quantile_from_buckets(entry["bounds"], entry["counts"], q)
                for q in (0.5, 0.95, 0.99)
            ]
            # Latency histograms read best in milliseconds; leave
            # unit-less ones (batch sizes) on their native scale.
            scale = 1e3 if name.endswith("_seconds") else 1.0
            shown = name + (" (ms)" if scale != 1.0 else "")
            histograms.append(
                [shown, f"{total:,}", f"{mean * scale:.2f}" if total else "-"]
                + [f"{q * scale:.2f}" if total else "-" for q in quantiles]
            )
        elif name.startswith("tier_"):
            value = entry["value"]
            scalars.append([name, entry["kind"], f"{value:,g}"])
    print(f"metrics source  : {url.rstrip('/')}/metrics/json")
    if scalars:
        print()
        print(format_table(["tier metric", "kind", "value"], scalars))
    else:
        print("no tier counters yet (tiering disabled, or no activity)")
    if histograms:
        print()
        print(
            format_table(
                ["histogram", "count", "mean", "p50", "p95", "p99"],
                histograms,
            )
        )
    return 0


def _cmd_tier(args: argparse.Namespace) -> int:
    from pathlib import Path

    from .tiering.blockfile import ColdBlockStore

    if args.url is not None:
        return _tier_stats_from_url(args.url)
    if args.data_dir is None:
        print(
            "error: one of --data-dir or --url is required", file=sys.stderr
        )
        return 2
    tiers = Path(args.data_dir) / "tiers"
    if not tiers.is_dir():
        print(
            f"no cold tier at {tiers} — the service has never demoted a "
            "block (run with --memory-budget-mb to enable tiering)"
        )
        return 0
    # dim is only needed to memory-map vectors; describe() reads metadata
    # and file sizes, so any value works here.
    store = ColdBlockStore(tiers, dim=0)
    rows = store.describe()
    if not rows:
        print(f"cold tier at {tiers} is empty")
        return 0
    table = [
        [
            row["index"],
            row["backend"],
            f"[{row['lo']}, {row['hi']})",
            row["vec_ref"] if row["vec_ref"] != row["index"] else "self",
            f"{row['idx_bytes'] / 1e3:.1f} KB",
            f"{row['vec_bytes'] / 1e3:.1f} KB" if row["vec_bytes"] else "-",
            f"{row['pq_bytes'] / 1e3:.1f} KB" if row["pq_bytes"] else "-",
            "TORN" if row["torn"] else "ok",
        ]
        for row in rows
    ]
    print(f"cold tier       : {tiers}")
    print(f"cold blocks     : {len(rows)}")
    print(f"disk bytes      : {store.disk_bytes() / 1e6:.2f} MB")
    torn = sum(1 for row in rows if row["torn"])
    if torn:
        print(
            f"torn idx files  : {torn} (will be rebuilt deterministically "
            "on next access)"
        )
    print()
    print(
        format_table(
            ["block", "backend", "positions", "vec", "idx", "vectors", "pq", "state"],
            table,
        )
    )
    return 0


def _cmd_slow(args: argparse.Namespace) -> int:
    """``repro slow``: render a server's captured traces over HTTP."""
    from .observability.telemetry import record_from_wire

    base = args.url.rstrip("/")
    path = "/debug/trace/recent" if args.recent else "/debug/slow"
    payload = _fetch_json(f"{base}{path}?n={max(1, args.n)}")
    records = [record_from_wire(raw) for raw in payload.get("records", [])]
    label = "sampled traces" if args.recent else "slow queries"
    if not records:
        print(f"no {label} captured at {base}{path}")
        return 0
    dropped = payload.get("dropped", 0)
    print(
        f"{len(records)} {label} from {base}{path} (newest first"
        f"{f'; {dropped} older records evicted' if dropped else ''})"
    )
    print()
    for record in records:
        flags = [flag for flag, on in (("SLOW", record.slow),
                                       ("sampled", record.sampled)) if on]
        when = (
            time.strftime("%H:%M:%S", time.localtime(record.unix_time))
            if record.unix_time
            else "--:--:--"
        )
        print(
            f"{record.trace_id[:16]}  {when}  {record.source:<7} "
            f"{record.seconds * 1e3:8.1f} ms  k={record.k}  "
            f"window=[{record.t_start:.6g}, {record.t_end:.6g}]"
            f"{'  [' + ' '.join(flags) + ']' if flags else ''}"
        )
        detail = None
        if record.stitched is not None:
            detail = record.stitched.render()
        elif record.trace is not None:
            detail = record.trace.render()
        if detail is not None:
            for line in detail.splitlines():
                print(f"    {line}")
        print()
    return 0


def _cmd_chaos(args: argparse.Namespace) -> int:
    import tempfile

    from .chaos import (
        run_crash_scenario,
        run_differential_scenario,
        run_shard_scenario,
    )

    reproduction = (
        args.crash_seed is not None
        or args.diff_seed is not None
        or args.shard_seed is not None
    )
    if reproduction:
        crash_seeds = [args.crash_seed] if args.crash_seed is not None else []
        diff_seeds = [args.diff_seed] if args.diff_seed is not None else []
        shard_seeds = [args.shard_seed] if args.shard_seed is not None else []
    else:
        crash_seeds = list(range(args.seed, args.seed + args.crash_seeds))
        diff_seeds = list(range(args.seed, args.seed + args.diff_seeds))
        shard_seeds = list(range(args.seed, args.seed + args.shard_seeds))
    started = time.perf_counter()
    for seed in crash_seeds:
        with tempfile.TemporaryDirectory(prefix="repro-chaos-") as data_dir:
            report = run_crash_scenario(seed, data_dir)
        print(
            f"crash seed {seed}: ok  {report.scenario.kind:<15} "
            f"acked={report.acked:<3} recovered={report.recovered:<3} "
            f"queries={report.queries_checked}"
        )
    for seed in diff_seeds:
        report = run_differential_scenario(seed)
        print(
            f"diff  seed {seed}: ok  queries={report.queries_checked:<3} "
            f"beam_recall={report.beam_recall:.3f} "
            f"greedy_recall={report.greedy_recall:.3f}"
        )
    for seed in shard_seeds:
        with tempfile.TemporaryDirectory(prefix="repro-chaos-") as data_dir:
            report = run_shard_scenario(seed, data_dir)
        print(
            f"shard seed {seed}: ok  {report.scenario.kind:<12} "
            f"shards={report.scenario.n_shards} "
            f"acked={report.acked:<3} recovered={report.recovered:<3} "
            f"queries={report.queries_checked}"
        )
    elapsed = time.perf_counter() - started
    print(
        f"chaos: {len(crash_seeds)} crash + {len(diff_seeds)} differential "
        f"+ {len(shard_seeds)} shard schedules passed in {elapsed:.1f}s"
    )
    return 0


_COMMANDS = {
    "datasets": _cmd_datasets,
    "build": _cmd_build,
    "info": _cmd_info,
    "query": _cmd_query,
    "explain": _cmd_explain,
    "ingest": _cmd_ingest,
    "serve": _cmd_serve,
    "shard": _cmd_shard,
    "tier": _cmd_tier,
    "slow": _cmd_slow,
    "chaos": _cmd_chaos,
}


def main(argv: Sequence[str] | None = None) -> int:
    """CLI entry point; returns the process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except ReproError as error:
        print(f"error: {error}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
