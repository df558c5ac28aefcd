"""The shard router: scatter-gather TkNN over N worker shards.

:class:`ShardRouter` owns the routing rule
(:class:`~repro.core.shardmap.ShardPlan`): it partitions the
time-accumulating stream across shards by contiguous vector-index range,
forwards every ``ingest`` to the owning shard, and answers TkNN queries
by

1. **pruning** shards whose stripes cannot intersect the query window
   (:func:`~repro.core.shardmap.prune_shards` over the per-stripe time
   bounds the router maintains as it routes ingests),
2. **scattering** the query to the survivors — each shard searches
   under a seed derived from ``(base_seed, shard)``, so answers do not
   depend on the transport, the scatter order, or which shards were
   pruned — with per-shard retry and timeout,
3. **merging** the per-shard top-k by the library-wide ascending
   ``(distance, global position)`` tie-break — the same rule
   :func:`repro.core.results.merge_partial_results` applies to
   per-block partials — so the sharded answer is bit-identical to a
   single-process reference over the same data.

A shard that stays unreachable past its retry budget either fails the
query (:class:`~repro.exceptions.ShardUnavailableError`) or, when the
caller opts in (``allow_partial``), degrades to a **partial** result
with ``partial=True`` and the failed shards listed — degraded, but
still exactly the merge of every shard that did answer.
"""

from __future__ import annotations

import time
from concurrent.futures import ThreadPoolExecutor
from concurrent.futures import TimeoutError as FutureTimeoutError
from dataclasses import dataclass, field
from pathlib import Path
from typing import Sequence

import numpy as np

from ..core.config import MBIConfig
from ..core.results import QueryStats
from ..core.shardmap import ShardPlan, prune_shards
from ..exceptions import (
    ConfigurationError,
    DimensionMismatchError,
    InvalidQueryError,
    ShardUnavailableError,
    TimestampOrderError,
)
from ..faultinject import failpoint
from ..observability.metrics import aggregate_states, get_registry
from ..observability.telemetry import get_telemetry
from ..observability.trace import QueryTrace
from ..observability.tracing import Span, StitchedTrace, TraceContext
from .transport import InProcessTransport, ShardReply, ShardTransport

__all__ = ["RouterConfig", "ShardRouter", "ShardedResult"]


@dataclass(frozen=True)
class RouterConfig:
    """Scatter-gather policy knobs for :class:`ShardRouter`.

    Attributes:
        scatter_timeout: Seconds the router waits for one shard's
            attempts before declaring it slow (``None`` waits forever).
            HTTP transports additionally apply it per attempt as a
            socket timeout.
        retries: Extra attempts after a failed one (0 = single shot).
        allow_partial: Default for queries that do not say: degrade to
            partial results instead of raising when a shard stays down.
        seed: Base seed for the per-``(query, shard)`` seed derivation
            used when the caller does not pass an explicit ``seed``.
        stripe_leaves: Stripe size in whole leaves (see
            :meth:`repro.core.shardmap.ShardPlan.from_config`).
    """

    scatter_timeout: float | None = None
    retries: int = 1
    allow_partial: bool = False
    seed: int = 0
    stripe_leaves: int = 1


@dataclass(frozen=True)
class ShardedResult:
    """A merged scatter-gather answer.

    Attributes:
        positions: Global store positions of the merged top-k.
        distances: Ascending distances, aligned with ``positions``.
        timestamps: Timestamps, aligned with ``positions``.
        stats: Work counters summed over every shard that answered
            (``window_size`` sums too — shard windows are disjoint).
        partial: True when at least one un-pruned shard failed and the
            query proceeded without it (``allow_partial``).
        queried_shards: Shards the query was scattered to, ascending.
        pruned_shards: Shards skipped by window pruning, ascending.
        failed_shards: Shards that failed past their retry budget.
    """

    positions: np.ndarray
    distances: np.ndarray
    timestamps: np.ndarray
    stats: QueryStats
    partial: bool = False
    queried_shards: tuple[int, ...] = ()
    pruned_shards: tuple[int, ...] = ()
    failed_shards: tuple[int, ...] = ()

    def __len__(self) -> int:
        """Number of merged results."""
        return len(self.positions)


@dataclass
class _ShardState:
    """Router-side bookkeeping for one shard."""

    transport: ShardTransport
    records: int = 0
    bounds: list[tuple[float, float]] = field(default_factory=list)
    draining: bool = False
    consecutive_failures: int = 0


class ShardRouter:
    """Scatter-gather front end over N worker shards (one per transport).

    The router is the single writer of the global stream: it assigns
    global positions, enforces the non-decreasing-timestamp invariant
    across shards, and keeps the per-stripe time bounds pruning needs.
    Queries may come from many threads; scatter fan-out runs on an
    internal thread pool.
    """

    def __init__(
        self,
        transports: Sequence[ShardTransport],
        plan: ShardPlan,
        *,
        config: RouterConfig | None = None,
    ) -> None:
        """Attach to existing shards and reconstruct the routing state.

        Each transport is interrogated (``info``) for its record count
        and per-stripe time bounds; the per-shard counts must form a
        legal prefix of ``plan`` or :class:`ConfigurationError` is
        raised — a shard that lost acknowledged records must be repaired
        (recovered from WAL/snapshots) before the router will serve.
        """
        if len(transports) != plan.n_shards:
            raise ConfigurationError(
                f"plan expects {plan.n_shards} shards, "
                f"got {len(transports)} transports"
            )
        self.plan = plan
        self.config = config or RouterConfig()
        self._shards = [_ShardState(transport=t) for t in transports]
        for state in self._shards:
            info = state.transport.info(plan.stripe_size)
            self.dim = int(info["dim"])
            state.records = int(info["records"])
            state.bounds = [
                (float(lo), float(hi)) for lo, hi in info["stripe_bounds"]
            ]
        self._total = plan.total_records(
            [state.records for state in self._shards]
        )
        self._last_timestamp = float("-inf")
        for state in self._shards:
            if state.bounds:
                self._last_timestamp = max(
                    self._last_timestamp, state.bounds[-1][1]
                )
        self._rng = np.random.default_rng(self.config.seed)
        self._pool = ThreadPoolExecutor(
            max_workers=max(2, plan.n_shards),
            thread_name_prefix="shard-scatter",
        )
        registry = get_registry()
        self._m_queries = registry.counter(
            "shard_queries_total", "scatter-gather queries routed"
        )
        self._m_scatter = registry.counter(
            "shard_scatter_total", "per-shard search attempts"
        )
        self._m_pruned = registry.counter(
            "shard_pruned_total", "shard searches skipped by window pruning"
        )
        self._m_retries = registry.counter(
            "shard_retries_total", "per-shard attempt retries"
        )
        self._m_failures = registry.counter(
            "shard_failures_total", "shards failed past the retry budget"
        )
        self._m_partial = registry.counter(
            "shard_partial_total", "queries answered with partial results"
        )
        self._m_ingest = registry.counter(
            "shard_ingest_records_total", "records routed to shards"
        )
        self._m_fanout = registry.histogram(
            "shard_fanout",
            "shards scattered to per query",
            buckets=(1, 2, 4, 8, 16, 32),
        )
        self._m_merge = registry.histogram(
            "shard_merge_seconds", "time merging per-shard top-k"
        )

    # -------------------------------------------------------------- lifecycle

    @classmethod
    def open(
        cls,
        data_dir: str | Path,
        *,
        n_shards: int,
        dim: int | None = None,
        metric: str = "euclidean",
        mbi_config: MBIConfig | None = None,
        service_config=None,
        config: RouterConfig | None = None,
    ) -> "ShardRouter":
        """Open (or create) an in-process N-shard cluster under ``data_dir``.

        Each shard is a full :class:`~repro.service.IndexService` (own
        WAL, snapshots, optional tiering) rooted at
        ``data_dir/shard-<i>``, recovered if the directory exists.  This
        is the single-process reference deployment; multi-process
        deployments use :class:`repro.sharding.worker.ShardCluster` plus
        HTTP transports instead.
        """
        from ..service.service import IndexService

        config = config or RouterConfig()
        mbi_config = mbi_config or MBIConfig()
        plan = ShardPlan.from_config(
            n_shards, mbi_config, stripe_leaves=config.stripe_leaves
        )
        base = Path(data_dir)
        transports = []
        for shard in range(n_shards):
            shard_dir = base / f"shard-{shard:03d}"

            def reopen(
                shard_dir: Path = shard_dir,
            ) -> IndexService:
                """(Re)open this shard's service from its data directory."""
                return IndexService.open(
                    shard_dir,
                    dim=dim,
                    metric=metric,
                    mbi_config=mbi_config,
                    config=service_config,
                )

            transports.append(
                InProcessTransport(shard, reopen(), reopen=reopen)
            )
        return cls(transports, plan, config=config)

    def close(self) -> None:
        """Close every transport (draining in-process services) and the pool."""
        for state in self._shards:
            state.transport.close()
        self._pool.shutdown(wait=True)

    def detach(self) -> None:
        """Release the router's own resources without touching the shards.

        The scatter pool is shut down but every transport is left open —
        for handing the transports to a new router (e.g. re-attaching
        after a shard crash-recovers, as the chaos harness does).
        """
        self._pool.shutdown(wait=True)

    def checkpoint(self) -> None:
        """Force a snapshot + WAL rotation on every shard."""
        for state in self._shards:
            state.transport.checkpoint()

    def __enter__(self) -> "ShardRouter":
        """Context-manager entry (returns self)."""
        return self

    def __exit__(self, *exc_info: object) -> None:
        """Context-manager exit: close the router."""
        self.close()

    # ------------------------------------------------------------- properties

    @property
    def n_shards(self) -> int:
        """Number of shards behind the router."""
        return self.plan.n_shards

    @property
    def total_records(self) -> int:
        """Global records routed (== sum of per-shard records)."""
        return self._total

    # ----------------------------------------------------- health / draining

    def drain(self, shard: int) -> None:
        """Take ``shard`` out of rotation (maintenance / rolling restart).

        Queries treat a draining shard like a failed one: skipped under
        ``allow_partial`` (with ``partial=True``), fatal otherwise.
        Ingests owned by the shard raise — the routing rule is
        positional, so writes cannot be redirected.
        """
        self._shards[shard].draining = True

    def restore(self, shard: int) -> None:
        """Put a drained ``shard`` back into rotation."""
        self._shards[shard].draining = False
        self._shards[shard].consecutive_failures = 0

    def health(self) -> list[dict]:
        """Poll every shard's liveness; never raises.

        Returns one dict per shard: ``{"shard", "ok", "draining",
        "records", "error"?}``.
        """
        out = []
        for shard, state in enumerate(self._shards):
            row = {
                "shard": shard,
                "draining": state.draining,
                "records": state.records,
            }
            try:
                remote = state.transport.healthz()
                row["ok"] = remote.get("status") == "ok"
                row["remote_records"] = remote.get("records")
            except Exception as error:  # noqa: BLE001 - health must not raise
                row["ok"] = False
                row["error"] = str(error)
            out.append(row)
        return out

    def fleet_metrics_state(self) -> dict:
        """One merged metrics view of the whole cluster.

        The router's own registry export plus every reachable worker's
        (scraped via :meth:`ShardTransport.metrics_state`), merged with
        :func:`repro.observability.aggregate_states` — counters and
        gauges summed, histograms merged bucket-wise.  In-process
        transports return the ``None`` sentinel (their services already
        report into the router's registry), so nothing double counts.
        An unreachable worker is skipped — the merged view degrades to
        the processes that answered rather than failing the scrape.
        """
        states: list[dict | None] = [get_registry().export_state()]
        for state in self._shards:
            try:
                states.append(state.transport.metrics_state())
            except Exception:  # noqa: BLE001 - scrape must not raise
                states.append(None)
        return aggregate_states(states)

    def stats(self) -> dict:
        """Topology + per-shard occupancy (what ``repro shard stats`` shows)."""
        return {
            "n_shards": self.plan.n_shards,
            "stripe_size": self.plan.stripe_size,
            "records": self._total,
            "shards": [
                {
                    "shard": shard,
                    "records": state.records,
                    "stripes": len(state.bounds),
                    "t_min": state.bounds[0][0] if state.bounds else None,
                    "t_max": state.bounds[-1][1] if state.bounds else None,
                    "draining": state.draining,
                }
                for shard, state in enumerate(self._shards)
            ],
        }

    # ----------------------------------------------------------------- ingest

    def ingest(self, vector: np.ndarray, timestamp: float) -> int:
        """Route one vector to its owning shard; returns its global position."""
        return self.ingest_batch(
            np.asarray(vector, dtype=np.float64)[None, :],
            np.asarray([timestamp], dtype=np.float64),
        ).start

    def ingest_batch(
        self, vectors: np.ndarray, timestamps: np.ndarray
    ) -> range:
        """Route a batch, splitting it into per-shard contiguous runs.

        Returns the global position range assigned to the batch.  The
        batch is applied shard run by shard run in stream order, so a
        failure mid-batch leaves a clean prefix (the router's count only
        advances past records the owning shard acknowledged).
        """
        vectors = np.asarray(vectors, dtype=np.float64)
        timestamps = np.asarray(timestamps, dtype=np.float64)
        if len(vectors) != len(timestamps):
            raise ConfigurationError(
                f"{len(vectors)} vectors with {len(timestamps)} timestamps"
            )
        if len(timestamps) and (
            np.any(np.diff(timestamps) < 0)
            or timestamps[0] < self._last_timestamp
        ):
            raise TimestampOrderError(
                "timestamps must be globally non-decreasing across shards"
            )
        start = self._total
        offset = 0
        plan = self.plan
        while offset < len(vectors):
            position = self._total
            shard = plan.shard_of(position)
            state = self._shards[shard]
            if state.draining:
                raise ShardUnavailableError(shard, "draining")
            # The run ends at the stripe boundary (ownership changes).
            stripe_end = (plan.stripe_of(position) + 1) * plan.stripe_size
            run = min(len(vectors) - offset, stripe_end - position)
            failpoint("shard.ingest")
            state.records = state.transport.ingest(
                vectors[offset : offset + run],
                timestamps[offset : offset + run],
            )
            self._note_ingested(
                shard, position, timestamps[offset : offset + run]
            )
            self._total += run
            offset += run
            self._m_ingest.inc(run)
        return range(start, self._total)

    def _note_ingested(
        self, shard: int, position: int, timestamps: np.ndarray
    ) -> None:
        """Fold a routed run into the shard's per-stripe time bounds."""
        state = self._shards[shard]
        plan = self.plan
        local = plan.local_position(position)
        for i, ts in enumerate(timestamps):
            ts = float(ts)
            stripe = (local + i) // plan.stripe_size
            if stripe == len(state.bounds):
                state.bounds.append((ts, ts))
            else:
                lo, _ = state.bounds[stripe]
                state.bounds[stripe] = (lo, ts)
            self._last_timestamp = ts

    # ----------------------------------------------------------------- search

    def search(
        self,
        query: np.ndarray,
        k: int = 10,
        t_start: float = float("-inf"),
        t_end: float = float("inf"),
        *,
        seed: int | None = None,
        allow_partial: bool | None = None,
        trace: QueryTrace | None = None,
    ) -> ShardedResult:
        """Scatter-gather one TkNN query.

        ``seed`` pins the per-shard entry-sampling randomness (derived
        per shard as ``default_rng([seed, shard])``-drawn integers);
        omitted, a seed is drawn from the router's stream.  Passing the
        same seed over any transport, shard count, or recovery history
        of the same logical data yields bit-identical results.
        """
        return self.search_batch(
            np.asarray(query, dtype=np.float64)[None, :],
            k,
            t_start,
            t_end,
            seed=seed,
            allow_partial=allow_partial,
            trace=trace,
        )[0]

    def search_batch(
        self,
        queries: np.ndarray,
        k: int = 10,
        t_start: float = float("-inf"),
        t_end: float = float("inf"),
        *,
        seed: int | None = None,
        allow_partial: bool | None = None,
        trace: QueryTrace | None = None,
    ) -> list[ShardedResult]:
        """Scatter a batch sharing one window; one merged result per query.

        Each surviving shard receives the whole batch in one scatter
        task (amortizing the fan-out), answers per query under the
        derived seeds, and the router merges per query.  ``trace`` (one
        :class:`QueryTrace`) records the shard spans of the batch.
        """
        queries = np.atleast_2d(np.asarray(queries, dtype=np.float64))
        if queries.shape[1] != self.dim:
            # The client's fault, not the shards': never scatter it.
            raise DimensionMismatchError(self.dim, queries.shape[1])
        if not np.isfinite(queries).all():
            raise InvalidQueryError("query contains non-finite components")
        if isinstance(k, bool) or not isinstance(k, (int, np.integer)):
            raise InvalidQueryError(f"k must be an integer, got {k!r}")
        if k < 1:
            raise InvalidQueryError(f"k must be >= 1, got {k}")
        if allow_partial is None:
            allow_partial = self.config.allow_partial
        if seed is None:
            seed = int(self._rng.integers(0, 2**63 - 1))
        base_rngs = [
            np.random.default_rng([int(seed), shard])
            for shard in range(self.plan.n_shards)
        ]
        # One derived integer seed per (query, shard), drawn before any
        # scatter: pruning, transport, and scheduling cannot shift them.
        shard_seeds = [
            rng.integers(0, 2**63 - 1, size=len(queries))
            for rng in base_rngs
        ]

        survivors = prune_shards(
            t_start, t_end, [s.bounds for s in self._shards]
        )
        pruned = tuple(
            shard
            for shard in range(self.plan.n_shards)
            if shard not in survivors
        )
        self._m_queries.inc(len(queries))
        self._m_pruned.inc(len(pruned) * len(queries))
        self._m_fanout.observe(len(survivors))

        # Head-sample for cluster-wide tracing.  The sampler draws from
        # its own RNG stream and shard seeds are already fixed above, so
        # sampling can never perturb answers.  One stitched trace covers
        # the whole batch: the context rides on the batch's first query.
        telemetry = get_telemetry()
        ctx: TraceContext | None = (
            TraceContext.root()
            if telemetry.armed and telemetry.should_sample()
            else None
        )
        child_ctx: dict[int, TraceContext] = {}

        failed: list[int] = []
        replies: dict[int, list[ShardReply]] = {}
        started = time.perf_counter()
        shard_started: dict[int, float] = {}
        shard_retries: dict[int, int] = {}
        futures = {}
        for shard in survivors:
            state = self._shards[shard]
            if state.draining:
                failed.append(shard)
                continue
            if ctx is not None:
                child_ctx[shard] = ctx.child()
            shard_started[shard] = time.perf_counter() - started
            futures[shard] = self._pool.submit(
                self._scatter_to_shard,
                shard,
                queries,
                k,
                t_start,
                t_end,
                shard_seeds[shard],
                child_ctx.get(shard),
            )
        shard_seconds: dict[int, float] = {}
        for shard, future in futures.items():
            try:
                replies[shard], shard_retries[shard] = future.result(
                    timeout=self.config.scatter_timeout
                )
                self._shards[shard].consecutive_failures = 0
            except (Exception, FutureTimeoutError) as error:  # noqa: BLE001
                future.cancel()
                failed.append(shard)
                # The whole retry budget was spent before the task gave up.
                shard_retries[shard] = self.config.retries
                self._shards[shard].consecutive_failures += 1
                self._m_failures.inc()
                if not allow_partial:
                    raise ShardUnavailableError(shard, str(error)) from error
            shard_seconds[shard] = (
                time.perf_counter() - started - shard_started[shard]
            )
        if failed and not allow_partial:
            # Draining shards reach here without a transport error.
            raise ShardUnavailableError(failed[0], "draining")
        if failed:
            self._m_partial.inc(len(queries))

        answered = sorted(replies)
        merge_started = time.perf_counter()
        results = [
            self._merge(
                [(shard, replies[shard][i]) for shard in answered],
                k,
                partial=bool(failed),
                queried=tuple(sorted(futures)),
                pruned=pruned,
                failed=tuple(sorted(failed)),
            )
            for i in range(len(queries))
        ]
        self._m_merge.observe(time.perf_counter() - merge_started)
        shard_events = [
            {
                "shard": shard,
                "pruned": shard in pruned,
                "failed": shard in failed,
                "n_results": sum(
                    len(r.positions) for r in replies.get(shard, [])
                ),
                "distance_evaluations": sum(
                    r.stats.distance_evaluations
                    for r in replies.get(shard, [])
                ),
                "seconds": shard_seconds.get(shard, 0.0),
                "started": shard_started.get(shard, 0.0),
                "retries": shard_retries.get(shard, 0),
            }
            for shard in range(self.plan.n_shards)
        ]
        if trace is not None:
            for event in shard_events:
                trace.record_shard(**event)
        if telemetry.armed:
            seconds = time.perf_counter() - started
            stitched = (
                self._stitch(
                    ctx,
                    k,
                    t_start,
                    t_end,
                    n_queries=len(queries),
                    seconds=seconds,
                    child_ctx=child_ctx,
                    shard_events=shard_events,
                    replies=replies,
                    results=results,
                    partial=bool(failed),
                )
                if ctx is not None
                else None
            )
            telemetry.record(
                source="router",
                seconds=seconds,
                k=int(k),
                t_start=float(t_start),
                t_end=float(t_end),
                stitched=stitched,
            )
        return results

    def _stitch(
        self,
        ctx: TraceContext,
        k: int,
        t_start: float,
        t_end: float,
        *,
        n_queries: int,
        seconds: float,
        child_ctx: dict[int, TraceContext],
        shard_events: list[dict],
        replies: dict[int, list[ShardReply]],
        results: list[ShardedResult],
        partial: bool,
    ) -> StitchedTrace:
        """Assemble the cluster-wide trace of one sampled scatter.

        The router's root span parents one child span per shard (ok /
        pruned / FAILED, with scatter timing and retry counts); shards
        that answered with a local trace contribute it under their span,
        so the stitched trace reaches down to block spans, tier marks,
        and ADC strategy inside each worker.
        """
        root = Span(
            name="router.search",
            trace_id=ctx.trace_id,
            span_id=ctx.span_id,
            seconds=seconds,
            tags={
                "k": int(k),
                "t_start": float(t_start),
                "t_end": float(t_end),
                "queries": n_queries,
                "fanout": len(child_ctx),
                "partial": partial,
            },
        )
        stitched = StitchedTrace(trace_id=ctx.trace_id, root=root)
        router_trace = QueryTrace(
            k=int(k),
            t_start=float(t_start),
            t_end=float(t_end),
            seconds=seconds,
        )
        for event in shard_events:
            shard = event["shard"]
            child = child_ctx.get(shard)
            if event["pruned"]:
                status = "pruned"
            elif event["failed"]:
                status = "FAILED"
            else:
                status = "ok"
            stitched.spans.append(
                Span(
                    name=f"shard[{shard}]",
                    trace_id=ctx.trace_id,
                    span_id=child.span_id if child is not None else "",
                    parent_id=ctx.span_id,
                    started=event["started"],
                    seconds=event["seconds"],
                    tags={
                        "shard": shard,
                        "status": status,
                        "retries": event["retries"],
                        "n_results": event["n_results"],
                        "distance_evaluations": event[
                            "distance_evaluations"
                        ],
                    },
                )
            )
            shard_replies = replies.get(shard, [])
            if shard_replies and shard_replies[0].trace is not None:
                stitched.shard_traces[shard] = shard_replies[0].trace
            router_trace.record_shard(**event)
        if results:
            head = results[0]
            router_trace.stats = head.stats
            router_trace.result_positions = tuple(
                int(p) for p in head.positions
            )
            router_trace.result_distances = tuple(
                float(d) for d in head.distances
            )
        stitched.router_trace = router_trace
        return stitched

    def _scatter_to_shard(
        self,
        shard: int,
        queries: np.ndarray,
        k: int,
        t_start: float,
        t_end: float,
        seeds: np.ndarray,
        trace_ctx: TraceContext | None = None,
    ) -> tuple[list[ShardReply], int]:
        """One scatter task: answer the whole batch on one shard.

        Retries up to ``config.retries`` times; the ``shard.scatter``
        failpoint fires once per attempt, so chaos schedules can model
        flaky (``raise``), slow (``delay``), and dead shards.  Returns
        the replies plus the retries the task spent (0 = first try
        landed).  A propagated ``trace_ctx`` rides on the batch's first
        query only — one shard-local trace per stitched trace.
        """
        transport = self._shards[shard].transport
        last_error: Exception | None = None
        for attempt in range(self.config.retries + 1):
            if attempt:
                self._m_retries.inc()
            self._m_scatter.inc()
            try:
                failpoint("shard.scatter")
                return [
                    transport.search(
                        query,
                        k,
                        t_start,
                        t_end,
                        seed=int(seeds[i]),
                        trace_ctx=trace_ctx if i == 0 else None,
                    )
                    for i, query in enumerate(queries)
                ], attempt
            except Exception as error:  # noqa: BLE001 - mapped by caller
                last_error = error
        raise last_error  # type: ignore[misc]

    def _merge(
        self,
        shard_replies: list[tuple[int, ShardReply]],
        k: int,
        *,
        partial: bool,
        queried: tuple[int, ...],
        pruned: tuple[int, ...],
        failed: tuple[int, ...],
    ) -> ShardedResult:
        """Merge per-shard top-k by ascending (distance, global position)."""
        plan = self.plan
        positions_parts = []
        distances_parts = []
        timestamps_parts = []
        stats = QueryStats()
        window_size = 0
        for shard, reply in shard_replies:
            local = reply.positions
            local_stripe, offset = np.divmod(local, plan.stripe_size)
            positions_parts.append(
                (local_stripe * plan.n_shards + shard) * plan.stripe_size
                + offset
            )
            distances_parts.append(reply.distances)
            timestamps_parts.append(reply.timestamps)
            stats = stats.merged_with(reply.stats)
            window_size += reply.stats.window_size
        if positions_parts:
            positions = np.concatenate(positions_parts)
            distances = np.concatenate(distances_parts)
            timestamps = np.concatenate(timestamps_parts)
            order = np.lexsort((positions, distances))[:k]
            positions = positions[order]
            distances = distances[order]
            timestamps = timestamps[order]
        else:
            positions = np.empty(0, dtype=np.int64)
            distances = np.empty(0, dtype=np.float64)
            timestamps = np.empty(0, dtype=np.float64)
        # Shard windows are disjoint slices of the global window, so the
        # global window size is their sum (merged_with takes the max,
        # which is right for same-query block partials, not shards).
        stats = QueryStats(
            blocks_searched=stats.blocks_searched,
            graph_blocks=stats.graph_blocks,
            nodes_visited=stats.nodes_visited,
            distance_evaluations=stats.distance_evaluations,
            window_size=window_size,
        )
        return ShardedResult(
            positions=positions,
            distances=distances,
            timestamps=timestamps,
            stats=stats,
            partial=partial,
            queried_shards=queried,
            pruned_shards=pruned,
            failed_shards=failed,
        )
