"""Distributed trace propagation for cluster-wide queries.

A sharded query crosses process boundaries: the router scatters to shard
workers over HTTP (or in-process for tests), each worker answers from its
own :class:`~repro.service.IndexService`, and the router merges.  A local
:class:`~repro.observability.trace.QueryTrace` sees only one hop.  This
module makes the whole journey one trace, Dapper-style:

* :class:`TraceContext` — the ``(trace_id, span_id, parent_id)`` triple the
  router mints per sampled query and injects through the shard transports.
  Workers echo it back so the router can stitch replies into one tree.
* :class:`Span` — one timed hop (the router's root span, or one shard's
  scatter span), with free-form JSON-safe tags.
* :class:`StitchedTrace` — the assembled cluster trace: a root span whose
  children are the per-shard spans, each carrying the worker's full local
  :class:`QueryTrace` (block spans, tier marks, ADC strategy).
* :func:`trace_to_wire` / :func:`trace_from_wire` — a lossless JSON codec
  for :class:`QueryTrace`, so workers can attach their local trace to a
  reply and routers/CLIs can reconstruct it bit-for-bit.

Everything here is carried *alongside* query payloads — trace propagation
never changes what a query answers, only what the operator can see.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, field
from typing import Mapping

from ..core.results import QueryStats
from .trace import (
    BlockSearchEvent,
    QueryTrace,
    SelectionEvent,
    ShardScatterEvent,
)

__all__ = [
    "Span",
    "StitchedTrace",
    "TraceContext",
    "mint_trace_id",
    "mint_span_id",
    "span_from_wire",
    "span_to_wire",
    "stitched_from_wire",
    "stitched_to_wire",
    "trace_from_wire",
    "trace_to_wire",
]


def mint_trace_id() -> str:
    """A fresh 128-bit trace id as 32 lowercase hex chars.

    Drawn from :func:`os.urandom`, **never** from an answer-relevant RNG
    stream — minting ids must not perturb entry-point sampling or any
    other seeded randomness the determinism tests pin down.
    """
    return os.urandom(16).hex()


def mint_span_id() -> str:
    """A fresh 64-bit span id as 16 lowercase hex chars."""
    return os.urandom(8).hex()


@dataclass(frozen=True)
class TraceContext:
    """The propagation triple one hop of a distributed trace carries.

    Attributes:
        trace_id: Cluster-wide query identity; equal across every span of
            one stitched trace.
        span_id: The id of *this* hop's span.
        parent_id: The span that caused this hop (None at the root).
    """

    trace_id: str
    span_id: str
    parent_id: str | None = None

    @classmethod
    def root(cls) -> "TraceContext":
        """Mint a fresh root context (what the router does per query)."""
        return cls(trace_id=mint_trace_id(), span_id=mint_span_id())

    def child(self) -> "TraceContext":
        """A child context: same trace, new span, parented to this one."""
        return TraceContext(
            trace_id=self.trace_id,
            span_id=mint_span_id(),
            parent_id=self.span_id,
        )

    def to_wire(self) -> dict[str, object]:
        """JSON-safe dict for embedding in a request payload."""
        out: dict[str, object] = {
            "trace_id": self.trace_id,
            "span_id": self.span_id,
        }
        if self.parent_id is not None:
            out["parent_id"] = self.parent_id
        return out

    @classmethod
    def from_wire(cls, payload: Mapping[str, object]) -> "TraceContext":
        """Reconstruct a context from :meth:`to_wire` output."""
        return cls(
            trace_id=str(payload["trace_id"]),
            span_id=str(payload["span_id"]),
            parent_id=(
                str(payload["parent_id"])
                if payload.get("parent_id") is not None
                else None
            ),
        )


@dataclass
class Span:
    """One timed hop of a stitched trace.

    Attributes:
        name: What the hop did, e.g. ``"router.search"`` or ``"shard[2]"``.
        trace_id: Owning trace.
        span_id: This span's id.
        parent_id: Parent span id (None for the root span).
        started: Offset in seconds from the root span's start.  The root
            span itself has ``started == 0.0``; child spans are placed on
            the router's clock (when the scatter task was submitted), so
            sibling spans are directly comparable without cross-host
            clock agreement.
        seconds: Wall-clock duration of the hop.
        tags: Free-form JSON-safe annotations (shard id, retry count,
            hit counts, status...).
    """

    name: str
    trace_id: str
    span_id: str
    parent_id: str | None = None
    started: float = 0.0
    seconds: float = 0.0
    tags: dict[str, object] = field(default_factory=dict)


def span_to_wire(span: Span) -> dict[str, object]:
    """JSON-safe dict for one :class:`Span`."""
    return {
        "name": span.name,
        "trace_id": span.trace_id,
        "span_id": span.span_id,
        "parent_id": span.parent_id,
        "started": span.started,
        "seconds": span.seconds,
        "tags": dict(span.tags),
    }


def span_from_wire(payload: Mapping[str, object]) -> Span:
    """Reconstruct a :class:`Span` from :func:`span_to_wire` output."""
    return Span(
        name=str(payload["name"]),
        trace_id=str(payload["trace_id"]),
        span_id=str(payload["span_id"]),
        parent_id=(
            str(payload["parent_id"])
            if payload.get("parent_id") is not None
            else None
        ),
        started=float(payload.get("started", 0.0)),
        seconds=float(payload.get("seconds", 0.0)),
        tags=dict(payload.get("tags") or {}),
    )


@dataclass
class StitchedTrace:
    """One cluster-wide query trace assembled by the router.

    Attributes:
        trace_id: The trace's cluster-wide identity.
        root: The router's span (``parent_id is None``).
        spans: Per-shard child spans, in shard order, each parented to
            :attr:`root` and tagged with shard id / status / retries.
        shard_traces: The workers' local :class:`QueryTrace` objects,
            keyed by shard id.  A shard that was pruned or failed has no
            entry; an in-process shard contributes its trace directly.
        router_trace: The router's own :class:`QueryTrace` (selection is
            empty; ``shards`` carries the scatter spans and ``stats`` the
            cluster-merged totals), when the router recorded one.
    """

    trace_id: str
    root: Span
    spans: list[Span] = field(default_factory=list)
    shard_traces: dict[int, QueryTrace] = field(default_factory=dict)
    router_trace: QueryTrace | None = None

    @property
    def seconds(self) -> float:
        """Total wall-clock duration (the root span's duration)."""
        return self.root.seconds

    def render(self) -> str:
        """Pretty-print the stitched trace, worker traces indented."""
        lines: list[str] = []
        lines.append(
            f"trace {self.trace_id}: {self.root.name} "
            f"{self.root.seconds * 1e3:.3f} ms, {len(self.spans)} shard "
            f"span{'s' if len(self.spans) != 1 else ''}"
        )
        for tag in ("k", "t_start", "t_end"):
            if tag in self.root.tags:
                lines[-1] += f"  {tag}={self.root.tags[tag]}"
        for span in self.spans:
            status = span.tags.get("status", "?")
            retries = span.tags.get("retries", 0)
            suffix = f"  retries {retries}" if retries else ""
            lines.append(
                f"  span {span.name:<10} {status:<7} "
                f"@{span.started * 1e3:7.3f}+{span.seconds * 1e3:.3f} ms"
                f"{suffix}"
            )
            shard = span.tags.get("shard")
            local = (
                self.shard_traces.get(int(shard)) if shard is not None else None
            )
            if local is not None:
                for line in local.render().splitlines():
                    lines.append(f"    {line}")
        return "\n".join(lines)


# --------------------------------------------------------------- wire codec


def trace_to_wire(trace: QueryTrace) -> dict[str, object]:
    """Serialize a :class:`QueryTrace` to a JSON-safe dict, losslessly.

    Workers attach this to their query replies; the router and the
    ``repro slow`` CLI reconstruct the trace with :func:`trace_from_wire`.
    Tuples flatten to lists (JSON has no tuples); ``from_wire`` restores
    them, so a round-tripped trace has an equal :meth:`QueryTrace.signature`.
    """
    return {
        "k": trace.k,
        "t_start": trace.t_start,
        "t_end": trace.t_end,
        "tau": trace.tau,
        "selection_mode": trace.selection_mode,
        "brute_force_threshold": trace.brute_force_threshold,
        "window_positions": list(trace.window_positions),
        "selection": [
            {
                "block_index": e.block_index,
                "height": e.height,
                "positions": list(e.positions),
                "overlap": e.overlap,
                "ratio": e.ratio,
                "tau": e.tau,
                "decision": e.decision,
                "reason": e.reason,
            }
            for e in trace.selection
        ],
        "blocks": [
            {
                "block_index": e.block_index,
                "height": e.height,
                "positions": list(e.positions),
                "window": list(e.window),
                "built": e.built,
                "strategy": e.strategy,
                "reason": e.reason,
                "nodes_visited": e.nodes_visited,
                "distance_evaluations": e.distance_evaluations,
                "seconds": e.seconds,
                "n_results": e.n_results,
                "started": e.started,
                "tier": e.tier,
            }
            for e in trace.blocks
        ],
        "shards": [
            {
                "shard": e.shard,
                "pruned": e.pruned,
                "failed": e.failed,
                "n_results": e.n_results,
                "distance_evaluations": e.distance_evaluations,
                "seconds": e.seconds,
                "started": e.started,
                "retries": e.retries,
            }
            for e in trace.shards
        ],
        "result_positions": list(trace.result_positions),
        "result_distances": list(trace.result_distances),
        "stats": (
            None
            if trace.stats is None
            else {
                "blocks_searched": trace.stats.blocks_searched,
                "graph_blocks": trace.stats.graph_blocks,
                "nodes_visited": trace.stats.nodes_visited,
                "distance_evaluations": trace.stats.distance_evaluations,
                "window_size": trace.stats.window_size,
            }
        ),
        "seconds": trace.seconds,
    }


def trace_from_wire(payload: Mapping[str, object]) -> QueryTrace:
    """Reconstruct a :class:`QueryTrace` from :func:`trace_to_wire` output.

    Keys the decoder does not know (such as the ``"parallel"`` flag older
    writers sent) are ignored.
    """
    trace = QueryTrace(
        k=int(payload.get("k", 0)),
        t_start=float(payload.get("t_start", math.nan)),
        t_end=float(payload.get("t_end", math.nan)),
        tau=float(payload.get("tau", math.nan)),
        selection_mode=str(payload.get("selection_mode", "")),
        brute_force_threshold=int(payload.get("brute_force_threshold", 0)),
        window_positions=tuple(
            int(v) for v in payload.get("window_positions", (0, 0))
        ),
        result_positions=tuple(
            int(p) for p in payload.get("result_positions", ())
        ),
        result_distances=tuple(
            float(d) for d in payload.get("result_distances", ())
        ),
        seconds=float(payload.get("seconds", 0.0)),
    )
    for e in payload.get("selection", ()):
        trace.selection.append(
            SelectionEvent(
                block_index=int(e["block_index"]),
                height=int(e["height"]),
                positions=tuple(int(v) for v in e["positions"]),
                overlap=int(e["overlap"]),
                ratio=float(e["ratio"]),
                tau=float(e["tau"]),
                decision=str(e["decision"]),
                reason=str(e["reason"]),
            )
        )
    for e in payload.get("blocks", ()):
        trace.blocks.append(
            BlockSearchEvent(
                block_index=int(e["block_index"]),
                height=int(e["height"]),
                positions=tuple(int(v) for v in e["positions"]),
                window=tuple(int(v) for v in e["window"]),
                built=bool(e["built"]),
                strategy=str(e["strategy"]),
                reason=str(e["reason"]),
                nodes_visited=int(e["nodes_visited"]),
                distance_evaluations=int(e["distance_evaluations"]),
                seconds=float(e["seconds"]),
                n_results=int(e["n_results"]),
                started=float(e.get("started", 0.0)),
                tier=str(e.get("tier", "hot")),
            )
        )
    for e in payload.get("shards", ()):
        trace.shards.append(
            ShardScatterEvent(
                shard=int(e["shard"]),
                pruned=bool(e["pruned"]),
                failed=bool(e["failed"]),
                n_results=int(e["n_results"]),
                distance_evaluations=int(e["distance_evaluations"]),
                seconds=float(e.get("seconds", 0.0)),
                started=float(e.get("started", 0.0)),
                retries=int(e.get("retries", 0)),
            )
        )
    stats = payload.get("stats")
    if stats is not None:
        trace.stats = QueryStats(
            blocks_searched=int(stats["blocks_searched"]),
            graph_blocks=int(stats["graph_blocks"]),
            nodes_visited=int(stats["nodes_visited"]),
            distance_evaluations=int(stats["distance_evaluations"]),
            window_size=int(stats["window_size"]),
        )
    return trace


def stitched_to_wire(stitched: StitchedTrace) -> dict[str, object]:
    """Serialize a :class:`StitchedTrace` (for ``/debug`` endpoints)."""
    return {
        "trace_id": stitched.trace_id,
        "root": span_to_wire(stitched.root),
        "spans": [span_to_wire(s) for s in stitched.spans],
        "shard_traces": {
            str(shard): trace_to_wire(trace)
            for shard, trace in stitched.shard_traces.items()
        },
        "router_trace": (
            None
            if stitched.router_trace is None
            else trace_to_wire(stitched.router_trace)
        ),
    }


def stitched_from_wire(payload: Mapping[str, object]) -> StitchedTrace:
    """Reconstruct a :class:`StitchedTrace` from :func:`stitched_to_wire`."""
    router_trace = payload.get("router_trace")
    return StitchedTrace(
        trace_id=str(payload["trace_id"]),
        root=span_from_wire(payload["root"]),
        spans=[span_from_wire(s) for s in payload.get("spans", ())],
        shard_traces={
            int(shard): trace_from_wire(trace)
            for shard, trace in (payload.get("shard_traces") or {}).items()
        },
        router_trace=(
            None if router_trace is None else trace_from_wire(router_trace)
        ),
    )
