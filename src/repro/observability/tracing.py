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
* :func:`to_wire` / :func:`from_wire` — the one JSON codec for every
  telemetry dataclass (:class:`QueryTrace`, :class:`Span`,
  :class:`StitchedTrace`, :class:`TraceContext`, ``TraceRecord``), derived
  from the dataclass fields, so workers can attach their local trace to a
  reply and routers/CLIs can reconstruct it bit-for-bit.

Everything here is carried *alongside* query payloads — trace propagation
never changes what a query answers, only what the operator can see.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, field, fields, is_dataclass
from functools import lru_cache
from types import UnionType
from typing import (
    Any,
    Mapping,
    TypeVar,
    Union,
    get_args,
    get_origin,
    get_type_hints,
)

from .trace import QueryTrace

T = TypeVar("T")

__all__ = [
    "Span",
    "StitchedTrace",
    "TraceContext",
    "from_wire",
    "mint_trace_id",
    "mint_span_id",
    "to_wire",
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

#: How :func:`to_wire` spells a non-finite float (strict JSON has none).
_NON_FINITE = {"inf": math.inf, "-inf": -math.inf, "nan": math.nan}


def to_wire(obj: Any) -> Any:
    """The JSON-safe form of a telemetry value, derived from its dataclass.

    A dataclass becomes a dict keyed by its field names, tuples become
    lists, dict keys become strings, and a non-finite float becomes the
    string ``"inf"``, ``"-inf"`` or ``"nan"`` — so the result always
    passes ``json.dumps(..., allow_nan=False)``.  :func:`from_wire` is
    the inverse.
    """
    if is_dataclass(obj):
        return {f.name: to_wire(getattr(obj, f.name)) for f in fields(obj)}
    if isinstance(obj, float):
        return obj if math.isfinite(obj) else str(obj)
    if isinstance(obj, (list, tuple)):
        return [to_wire(v) for v in obj]
    if isinstance(obj, dict):
        return {str(k): to_wire(v) for k, v in obj.items()}
    return obj


def from_wire(cls: type[T], payload: Mapping[str, Any]) -> T:
    """Rebuild a ``cls`` instance from :func:`to_wire` output.

    Driven by the dataclass's resolved type hints: tuples are restored,
    ``dict[int, ...]`` keys go back to ints, ``X | None`` accepts
    ``null``, and a float field reads the non-finite strings back.  A
    missing key takes the field's default (payloads from older writers
    lack ``"plan"``, ``"started"``, ``"retries"``...) and a key the class
    does not know (such as an old ``"parallel"`` flag) is ignored.  An
    untyped value (a :class:`Span` tag) reads the three non-finite
    spellings back as floats, so a tag string cannot be one of them.
    """
    hints = _hints(cls)
    return cls(
        **{
            f.name: _decode(hints[f.name], payload[f.name])
            for f in fields(cls)
            if f.name in payload
        }
    )


@lru_cache(maxsize=None)
def _hints(cls: type) -> dict[str, Any]:
    # Resolved on first use: importing repro.core at module level would
    # cycle back through core/mbi.py into this package.
    from ..core.results import QueryStats

    return get_type_hints(cls, localns={"QueryStats": QueryStats})


def _decode(hint: Any, value: Any) -> Any:
    origin, args = get_origin(hint), get_args(hint)
    if origin is UnionType or origin is Union:
        if value is None:
            return None
        (hint,) = [a for a in args if a is not type(None)]
        return _decode(hint, value)
    if is_dataclass(hint):
        return from_wire(hint, value)
    if origin is tuple:
        if len(args) == 2 and args[1] is Ellipsis:
            return tuple(_decode(args[0], v) for v in value)
        return tuple(_decode(a, v) for a, v in zip(args, value))
    if origin is list:
        return [_decode(args[0], v) for v in value]
    if origin is dict:
        return {
            _decode(args[0], k): _decode(args[1], v) for k, v in value.items()
        }
    if hint in (int, float, str, bool):
        return hint(value)
    # Untyped (a span tag): only the non-finite spellings need undoing.
    if isinstance(value, str):
        return _NON_FINITE.get(value, value)
    return value
