"""Per-query EXPLAIN traces for TkNN search.

A :class:`QueryTrace` records everything MBI decided while answering one
query: the top-down block-selection walk (per-node overlap ratio vs. ``tau``
and the resulting select/descend/reject decision), the per-block strategy
choice (graph search vs. brute force, with the reason), per-block timings
and work counters, and the final merge.  Traces are how the paper's
central claims — *which* blocks the τ-rule picks, *when* graph search beats
brute force, *how* distance evaluations scale with window length — become
assertable facts instead of aggregate folklore.

Tracing is strictly opt-in: ``MBI.search(..., trace=None)`` (the default)
allocates no trace objects at all, so the hot path pays nothing.  Pass a
fresh :class:`QueryTrace` (or call :meth:`MultiLevelBlockIndex.explain`) to
fill one in.  All event construction happens through the
``record_*`` methods on the trace, so instrumented modules never touch the
event classes when tracing is off.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import TYPE_CHECKING, Iterable, Sequence

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..core.results import QueryStats

#: Selection-walk decisions.
SELECTED = "selected"
DESCENDED = "descended"
REJECTED = "rejected"


@dataclass(frozen=True)
class SelectionEvent:
    """One node visited by the block-selection walk (Algorithm 4 lines 11-20).

    Attributes:
        block_index: Postorder block id.
        height: Tree height (0 = leaf).
        positions: The block's capacity range ``[lo, hi)`` in store positions.
        overlap: Store positions shared between the query window and the
            block's filled range.
        ratio: The overlap ratio ``r_o`` compared against ``tau``; NaN when
            no ratio was computed (leaves, virtual blocks, rejections).
        tau: The threshold in force for this query.
        decision: ``"selected"``, ``"descended"``, or ``"rejected"``.
        reason: Why — ``"leaf"``, ``"ratio>tau"``, ``"fully-covered"``,
            ``"ratio<=tau"``, ``"virtual-block"``, ``"no-overlap"``, or
            ``"no-data"``.
    """

    block_index: int
    height: int
    positions: tuple[int, int]
    overlap: int
    ratio: float
    tau: float
    decision: str
    reason: str


@dataclass(frozen=True)
class BlockSearchEvent:
    """One per-block search executed for the query.

    Attributes:
        block_index: Postorder block id.
        height: Tree height.
        positions: The block's capacity range in store positions.
        window: The store-position span actually searched (the block range
            clipped to the query window and the filled prefix).
        built: Whether the block had a built backend at query time.
        strategy: ``"graph"``, ``"brute"``, or ``"adc"`` (compressed
            cold-tier search: PQ code scan + exact memmap rerank).
        reason: Why that strategy — ``"built-block"`` (graph), ``"open-leaf"``
            (no backend yet), ``"short-window"`` (span at or below a
            pinned ``SearchParams.brute_force_threshold``),
            ``"scan-cheaper"`` (the block planner priced the scan below a
            graph search), or ``"cold-codes"`` (a demoted block answered
            from its resident code sidecar).
        nodes_visited: Graph nodes popped (0 for brute force).
        distance_evaluations: Distance computations charged to this block
            (see the convention in :mod:`repro.core.results`).
        seconds: Wall-clock time spent inside the block.  Blocks scanned
            together in one coalesced scan share its time by row count.
        n_results: Partial results the block contributed before the merge
            (for a coalesced scan: the scan's results inside this block).
        started: When the block search began, as an offset in seconds from
            the start of the query.  Together with ``seconds`` this is the
            block's *timing span*; the spans of one query's blocks abut.
        tier: Where the block's backend lived when the search hit it —
            ``"hot"`` (resident, or tiering disabled), ``"promoted"``
            (just brought back from the cold tier), or ``"cold"`` (a
            short-window brute scan over a block whose backend is
            demoted).  Like the timing fields, the tier depends on cache
            state, not on the query's decisions, so it is excluded from
            :meth:`QueryTrace.signature`.
    """

    block_index: int
    height: int
    positions: tuple[int, int]
    window: tuple[int, int]
    built: bool
    strategy: str
    reason: str
    nodes_visited: int
    distance_evaluations: int
    seconds: float
    n_results: int
    started: float = 0.0
    tier: str = "hot"


@dataclass(frozen=True)
class PlanStepEvent:
    """One executed step of the query's block plan.

    Consecutive blocks the planner scans run as one step (one coalesced
    scan); every other block is a step of its own.

    Attributes:
        strategy: ``"brute"``, ``"graph"``, or ``"adc"``.
        blocks: Postorder ids of the blocks the step covered.
        rows: The store-position span the step searched.
        est_us: The planner's cost estimate for the step, in microseconds
            (an ADC step, or the scan of a block whose build is deferred,
            keeps the estimate of the graph search it replaced).
        actual_us: Measured wall-clock microseconds.  Timing only, so
            excluded from :meth:`QueryTrace.signature` like ``est_us``.
    """

    strategy: str
    blocks: tuple[int, ...]
    rows: tuple[int, int]
    est_us: float
    actual_us: float


@dataclass(frozen=True)
class ShardScatterEvent:
    """One shard's role in a scatter-gather query (sharded serving only).

    Attributes:
        shard: Shard id.
        pruned: Whether window pruning skipped the shard entirely.
        failed: Whether the shard failed past its retry budget (its
            results, if any, are absent from the merge).
        n_results: Partial results the shard contributed to the merge.
        distance_evaluations: Distance computations the shard reported.
        seconds: Wall-clock time from scatter to gathered reply.  Like
            ``BlockSearchEvent.seconds`` this is a timing field: it
            depends on scheduling, not on the query's decisions, so it
            is excluded from :meth:`QueryTrace.signature`.
        started: Offset in seconds from the start of the scatter to when
            this shard's task was submitted (also timing-only).
        retries: Transport attempts beyond the first (0 when the first
            try succeeded).  Retries depend on transient transport
            weather, not on the query, so like the timing fields they
            are excluded from :meth:`QueryTrace.signature`.
    """

    shard: int
    pruned: bool
    failed: bool
    n_results: int
    distance_evaluations: int
    seconds: float = 0.0
    started: float = 0.0
    retries: int = 0


@dataclass
class QueryTrace:
    """Everything one TkNN query did, decision by decision.

    Filled in by ``MBI.search(..., trace=trace)``; most users get one from
    :meth:`MultiLevelBlockIndex.explain`.

    Attributes:
        k: Neighbors requested.
        t_start: Query window start.
        t_end: Query window end.
        tau: Block-selection threshold in force.
        selection_mode: ``"count"`` or ``"time"``.
        brute_force_threshold: The pinned per-block exact-scan cutoff, or
            ``None`` when the block planner chose each block's strategy.
        window_positions: Store positions the window resolved to.
        selection: The selection walk, in visit order.
        blocks: Per-block searches, in execution order.
        plan: The executed block plan, one event per step.
        shards: Per-shard scatter spans, one per shard, when the query
            ran through a :class:`~repro.sharding.ShardRouter` (empty
            for single-process queries).
        result_positions: Final merged result positions.
        result_distances: Final merged result distances.
        stats: The query's merged :class:`~repro.core.results.QueryStats`.
        seconds: Total wall-clock time of the traced search.
    """

    k: int = 0
    t_start: float = math.nan
    t_end: float = math.nan
    tau: float = math.nan
    selection_mode: str = ""
    brute_force_threshold: int | None = None
    window_positions: tuple[int, int] = (0, 0)
    selection: list[SelectionEvent] = field(default_factory=list)
    blocks: list[BlockSearchEvent] = field(default_factory=list)
    plan: list[PlanStepEvent] = field(default_factory=list)
    shards: list[ShardScatterEvent] = field(default_factory=list)
    result_positions: tuple[int, ...] = ()
    result_distances: tuple[float, ...] = ()
    stats: "QueryStats | None" = None
    seconds: float = 0.0

    # ------------------------------------------------------------ recording

    def record_selection(
        self,
        block_index: int,
        height: int,
        positions: tuple[int, int],
        overlap: int,
        ratio: float,
        tau: float,
        decision: str,
        reason: str,
    ) -> None:
        """Append one selection-walk event (called by ``select_blocks``)."""
        self.selection.append(
            SelectionEvent(
                block_index=block_index,
                height=height,
                positions=positions,
                overlap=overlap,
                ratio=ratio,
                tau=tau,
                decision=decision,
                reason=reason,
            )
        )

    def record_shard(
        self,
        shard: int,
        pruned: bool,
        failed: bool,
        n_results: int,
        distance_evaluations: int,
        seconds: float = 0.0,
        started: float = 0.0,
        retries: int = 0,
    ) -> None:
        """Append one shard scatter span (called by ``ShardRouter``)."""
        self.shards.append(
            ShardScatterEvent(
                shard=shard,
                pruned=pruned,
                failed=failed,
                n_results=n_results,
                distance_evaluations=distance_evaluations,
                seconds=seconds,
                started=started,
                retries=retries,
            )
        )

    # ----------------------------------------------------------- inspection

    @property
    def selected(self) -> list[SelectionEvent]:
        """Selection events whose decision was ``"selected"``."""
        return [e for e in self.selection if e.decision == SELECTED]

    @property
    def window_size(self) -> int:
        """Number of store positions inside the query window."""
        lo, hi = self.window_positions
        return max(0, hi - lo)

    def signature(self) -> tuple:
        """A timing-free, hashable digest of every decision the query made.

        Two searches over identically-built indexes with the same query,
        parameters, and entry-sampling randomness must produce equal
        signatures — the determinism regression tests compare these.  A
        NaN ratio (no ratio computed) is carried as ``None``: every NaN
        compares unequal, so a decoded copy of the trace would not match.
        """
        return (
            self.k,
            self.window_positions,
            tuple(
                replace(e, ratio=None) if math.isnan(e.ratio) else e
                for e in self.selection
            ),
            tuple(
                (
                    e.block_index,
                    e.height,
                    e.positions,
                    e.window,
                    e.built,
                    e.strategy,
                    e.reason,
                    e.nodes_visited,
                    e.distance_evaluations,
                    e.n_results,
                )
                for e in self.blocks
            ),
            tuple(
                (
                    e.shard,
                    e.pruned,
                    e.failed,
                    e.n_results,
                    e.distance_evaluations,
                )
                for e in self.shards
            ),
            self.result_positions,
            self.result_distances,
            tuple((e.strategy, e.blocks, e.rows) for e in self.plan),
        )

    def summary(self) -> dict[str, float]:
        """Aggregate numbers for reporting (one trace's row)."""
        n_graph = sum(1 for e in self.blocks if e.strategy == "graph")
        n_brute = sum(1 for e in self.blocks if e.strategy == "brute")
        n_adc = sum(1 for e in self.blocks if e.strategy == "adc")
        return {
            "window_size": float(self.window_size),
            "blocks_searched": float(len(self.blocks)),
            "graph_blocks": float(n_graph),
            "brute_blocks": float(n_brute),
            "adc_blocks": float(n_adc),
            "nodes_visited": float(sum(e.nodes_visited for e in self.blocks)),
            "distance_evaluations": float(
                sum(e.distance_evaluations for e in self.blocks)
            ),
            "seconds": self.seconds,
        }

    # ------------------------------------------------------------ rendering

    def render(self) -> str:
        """Pretty-print the trace (what ``repro explain`` shows)."""
        lines: list[str] = []
        lo, hi = self.window_positions
        lines.append(
            f"TkNN query: k={self.k}, window t=[{self.t_start:.6g}, "
            f"{self.t_end:.6g}) -> positions [{lo}, {hi}) "
            f"({self.window_size} vectors)"
        )
        threshold = (
            "planner"
            if self.brute_force_threshold is None
            else self.brute_force_threshold
        )
        lines.append(
            f"tau={self.tau:g} (selection mode: {self.selection_mode or '?'}), "
            f"brute-force threshold: {threshold}"
        )
        lines.append("")
        lines.append("block selection walk:")
        if not self.selection:
            lines.append("  (no blocks visited)")
        for e in self.selection:
            span = f"[{e.positions[0]}, {e.positions[1]})"
            ratio = "r_o=  -  " if math.isnan(e.ratio) else f"r_o={e.ratio:.3f}"
            decision = {
                SELECTED: "SELECT",
                DESCENDED: "descend",
                REJECTED: "reject",
            }.get(e.decision, e.decision)
            lines.append(
                f"  block {e.block_index:>4} h={e.height} {span:<16} "
                f"overlap {e.overlap:>6}  {ratio}  "
                f"{e.reason:<14} -> {decision}"
            )
        lines.append("")
        lines.append("block searches:")
        if not self.blocks:
            lines.append("  (none)")
        for e in self.blocks:
            span = f"[{e.positions[0]}, {e.positions[1]})"
            window = f"{e.window[0]}..{e.window[1]}"
            tier = "" if e.tier == "hot" else f" [{e.tier}]"
            lines.append(
                f"  block {e.block_index:>4} h={e.height} {span:<16} "
                f"{e.strategy:<5} {e.reason:<12} window {window:<13} "
                f"visited {e.nodes_visited:>5}  dists {e.distance_evaluations:>6}  "
                f"{e.n_results:>3} hits  "
                f"@{e.started * 1e3:7.3f}+{e.seconds * 1e3:.3f} ms{tier}"
            )
        if self.plan:
            lines.append("")
            lines.append("executed plan:")
            for s in self.plan:
                blocks = ",".join(str(b) for b in s.blocks)
                rows = f"{s.rows[0]}..{s.rows[1]}"
                lines.append(
                    f"  {s.strategy:<5} blocks {blocks:<16} rows {rows:<13} "
                    f"est {s.est_us:9.1f} us  actual {s.actual_us:9.1f} us"
                )
        if self.shards:
            lines.append("")
            lines.append("shard scatter:")
            for s in self.shards:
                if s.pruned:
                    status = "pruned"
                elif s.failed:
                    status = "FAILED"
                else:
                    status = "ok"
                retries = f"  retries {s.retries}" if s.retries else ""
                lines.append(
                    f"  shard {s.shard:>3} {status:<7} "
                    f"{s.n_results:>3} hits  dists {s.distance_evaluations:>6}  "
                    f"@{s.started * 1e3:7.3f}+{s.seconds * 1e3:.3f} ms{retries}"
                )
        lines.append("")
        kept = len(self.result_positions)
        contributed = sum(e.n_results for e in self.blocks)
        total_dists = (
            self.stats.distance_evaluations
            if self.stats is not None
            else sum(e.distance_evaluations for e in self.blocks)
        )
        lines.append(
            f"merge: kept {kept} of {contributed} partial results; "
            f"{total_dists} distance evaluations in {self.seconds * 1e3:.3f} ms"
        )
        if kept:
            top = " | ".join(
                f"#{p} d={d:.4f}"
                for p, d in zip(
                    self.result_positions[:3], self.result_distances[:3]
                )
            )
            lines.append(f"top-{min(3, kept)}: {top}")
        return "\n".join(lines)


@dataclass(frozen=True)
class TraceSummary:
    """Aggregate statistics over many traces (one benchmark row's worth).

    Attributes:
        n_queries: Traces aggregated.
        mean_window_size: Mean query-window size in vectors.
        mean_blocks_searched: Mean search-block-set size.
        max_blocks_searched: Largest search block set seen.
        graph_block_fraction: Share of block searches that used graph search.
        brute_block_fraction: Share that used brute force.
        mean_nodes_visited: Mean graph nodes popped per query.
        mean_distance_evaluations: Mean distance computations per query.
        mean_seconds: Mean traced wall-clock seconds per query.
        p50_seconds: Median traced latency (exact, from the per-trace
            samples — not a bucketed estimate).  NaN when no traces.
        p95_seconds: 95th-percentile traced latency.
        p99_seconds: 99th-percentile traced latency.
    """

    n_queries: int
    mean_window_size: float
    mean_blocks_searched: float
    max_blocks_searched: int
    graph_block_fraction: float
    brute_block_fraction: float
    mean_nodes_visited: float
    mean_distance_evaluations: float
    mean_seconds: float
    p50_seconds: float = math.nan
    p95_seconds: float = math.nan
    p99_seconds: float = math.nan

    def as_rows(self) -> list[tuple[str, float]]:
        """(name, value) rows for table rendering."""
        return [
            ("queries", float(self.n_queries)),
            ("mean window size", self.mean_window_size),
            ("mean blocks searched", self.mean_blocks_searched),
            ("max blocks searched", float(self.max_blocks_searched)),
            ("graph block fraction", self.graph_block_fraction),
            ("brute block fraction", self.brute_block_fraction),
            ("mean nodes visited", self.mean_nodes_visited),
            ("mean distance evals", self.mean_distance_evaluations),
            ("mean seconds", self.mean_seconds),
            ("p50 seconds", self.p50_seconds),
            ("p95 seconds", self.p95_seconds),
            ("p99 seconds", self.p99_seconds),
        ]


def _sample_quantile(sorted_values: Sequence[float], q: float) -> float:
    """Exact ``q``-quantile of pre-sorted samples (linear interpolation)."""
    if not sorted_values:
        return math.nan
    pos = q * (len(sorted_values) - 1)
    lo = int(math.floor(pos))
    hi = min(lo + 1, len(sorted_values) - 1)
    frac = pos - lo
    return sorted_values[lo] * (1.0 - frac) + sorted_values[hi] * frac


def summarize_traces(traces: Iterable[QueryTrace]) -> TraceSummary:
    """Aggregate per-query traces into one :class:`TraceSummary`."""
    summaries = [t.summary() for t in traces]
    n = len(summaries)
    if n == 0:
        return TraceSummary(
            n_queries=0,
            mean_window_size=math.nan,
            mean_blocks_searched=math.nan,
            max_blocks_searched=0,
            graph_block_fraction=math.nan,
            brute_block_fraction=math.nan,
            mean_nodes_visited=math.nan,
            mean_distance_evaluations=math.nan,
            mean_seconds=math.nan,
        )

    def mean(key: str) -> float:
        return sum(s[key] for s in summaries) / n

    total_blocks = sum(s["blocks_searched"] for s in summaries)
    total_graph = sum(s["graph_blocks"] for s in summaries)
    total_brute = sum(s["brute_blocks"] for s in summaries)
    latencies = sorted(s["seconds"] for s in summaries)
    return TraceSummary(
        n_queries=n,
        mean_window_size=mean("window_size"),
        mean_blocks_searched=mean("blocks_searched"),
        max_blocks_searched=int(max(s["blocks_searched"] for s in summaries)),
        graph_block_fraction=(
            total_graph / total_blocks if total_blocks else math.nan
        ),
        brute_block_fraction=(
            total_brute / total_blocks if total_blocks else math.nan
        ),
        mean_nodes_visited=mean("nodes_visited"),
        mean_distance_evaluations=mean("distance_evaluations"),
        mean_seconds=mean("seconds"),
        p50_seconds=_sample_quantile(latencies, 0.50),
        p95_seconds=_sample_quantile(latencies, 0.95),
        p99_seconds=_sample_quantile(latencies, 0.99),
    )


def merge_traces_stats(traces: Sequence[QueryTrace]) -> "QueryStats":
    """Merge the stats of many traces (identity-safe, order-independent)."""
    from ..core.results import QueryStats

    merged = QueryStats()
    for trace in traces:
        if trace.stats is not None:
            merged = merged.merged_with(trace.stats)
    return merged
