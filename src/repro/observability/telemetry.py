"""Always-on sampled tracing and slow-query capture.

The EXPLAIN machinery in :mod:`repro.observability.trace` is opt-in per
query; production wants a *standing* trickle of traces plus a guarantee
that pathologically slow queries are never lost.  This module provides
the pieces, all zero-dependency and cheap enough to leave armed:

* :class:`TraceSampler` — head sampling: a probabilistic coin plus a
  token-bucket rate limit, so tracing cost is bounded under any load.
  The sampler draws from its **own** :class:`random.Random` stream; it
  never touches answer-relevant RNGs, so arming it cannot perturb
  results (the determinism suites pin this down).
* :class:`TraceBuffer` — a lock-cheap bounded ring buffer of
  :class:`TraceRecord`; appends are O(1) and old records fall off the
  back.  One buffer holds recent sampled traces, another the slow log.
* :class:`Telemetry` — the per-process assembly: sampler + buffers +
  slow-query threshold, with a process-wide instance behind
  :func:`get_telemetry` / :func:`configure_telemetry`.  The default
  config is fully disarmed (``sample_rate=0``, no slow threshold), so
  library use and unit tests pay nothing; serving entry points arm it.

Capture policy: a query that won the sampling coin carries a full trace
(and lands in the recent buffer, plus the slow log if over threshold); a
slow query that was *not* sampled still lands in the slow log as a
lightweight record — latency, window, and identity, without spans — so
the slow log never misses an incident even at low sample rates.
"""

from __future__ import annotations

import random
import threading
import time
from collections import deque
from dataclasses import dataclass

from .metrics import get_registry
from .trace import QueryTrace
from .tracing import StitchedTrace, mint_trace_id

__all__ = [
    "TelemetryConfig",
    "Telemetry",
    "TraceBuffer",
    "TraceRecord",
    "TraceSampler",
    "configure_telemetry",
    "get_telemetry",
]

_SAMPLED = get_registry().counter(
    "telemetry_sampled_total", "Queries captured by the trace sampler"
)
_SLOW = get_registry().counter(
    "telemetry_slow_total", "Queries that exceeded the slow-query threshold"
)
_RATE_LIMITED = get_registry().counter(
    "telemetry_rate_limited_total",
    "Sampling coin wins discarded by the rate limiter",
)


@dataclass(frozen=True)
class TelemetryConfig:
    """Sampling and capture policy for one process.

    Attributes:
        sample_rate: Probability in ``[0, 1]`` that a query is traced.
            0 (the default) disarms sampling entirely — the query path
            then allocates no trace objects, same as before telemetry
            existed.
        rate_limit_per_sec: Token-bucket cap on sampled traces per
            second, bounding trace cost under load spikes regardless of
            ``sample_rate``.
        slow_threshold: Latency in seconds past which a query enters the
            slow log; ``None`` (the default) disables slow capture.
        buffer_size: Capacity of the recent-traces ring buffer.
        slow_buffer_size: Capacity of the slow-query log.
        seed: Seed for the sampler's private RNG.  ``None`` (default)
            seeds from OS entropy; tests pin it for reproducible
            sampling decisions.
    """

    sample_rate: float = 0.0
    rate_limit_per_sec: float = 5.0
    slow_threshold: float | None = None
    buffer_size: int = 128
    slow_buffer_size: int = 32
    seed: int | None = None

    def __post_init__(self) -> None:
        if not 0.0 <= self.sample_rate <= 1.0:
            raise ValueError(
                f"sample_rate must be in [0, 1]; got {self.sample_rate}"
            )
        if self.rate_limit_per_sec <= 0:
            raise ValueError(
                "rate_limit_per_sec must be positive; got "
                f"{self.rate_limit_per_sec}"
            )
        if self.slow_threshold is not None and self.slow_threshold < 0:
            raise ValueError(
                f"slow_threshold must be >= 0; got {self.slow_threshold}"
            )
        if self.buffer_size < 1 or self.slow_buffer_size < 1:
            raise ValueError("trace buffers need capacity >= 1")


class TraceSampler:
    """Head sampler: probabilistic coin behind a token-bucket rate limit.

    ``should_sample()`` is the per-query gate.  With ``rate <= 0`` it
    returns False without taking the lock — the disarmed fast path is a
    single float compare.  A coin win still spends a token; when the
    bucket is dry the win is discarded (and counted), so a load spike
    cannot turn a 1% sample rate into an unbounded tracing bill.
    """

    def __init__(
        self,
        rate: float,
        rate_limit_per_sec: float = 5.0,
        seed: int | None = None,
        clock=time.monotonic,
    ) -> None:
        if not 0.0 <= rate <= 1.0:
            raise ValueError(f"rate must be in [0, 1]; got {rate}")
        if rate_limit_per_sec <= 0:
            raise ValueError("rate_limit_per_sec must be positive")
        self.rate = rate
        self.rate_limit_per_sec = rate_limit_per_sec
        self._clock = clock
        self._lock = threading.Lock()
        # Private stream: sampling decisions must never perturb
        # answer-relevant RNGs (router scatter seeds, service spawn RNG).
        self._rng = random.Random(seed)
        self._tokens = float(max(1.0, rate_limit_per_sec))
        self._capacity = self._tokens
        self._last_refill = clock()

    def should_sample(self) -> bool:
        """Decide whether this query gets a trace."""
        if self.rate <= 0.0:
            return False
        with self._lock:
            if self._rng.random() >= self.rate:
                return False
            now = self._clock()
            self._tokens = min(
                self._capacity,
                self._tokens
                + (now - self._last_refill) * self.rate_limit_per_sec,
            )
            self._last_refill = now
            if self._tokens < 1.0:
                _RATE_LIMITED.inc()
                return False
            self._tokens -= 1.0
            return True


@dataclass(frozen=True)
class TraceRecord:
    """One captured query in a :class:`TraceBuffer`.

    Attributes:
        trace_id: Cluster-wide identity (minted locally when the query
            was not distributed).
        source: Who captured it — ``"service"`` (single-process frontend
            or shard worker) or ``"router"``.
        seconds: End-to-end latency of the query.
        k: Neighbors requested.
        t_start: Query window start.
        t_end: Query window end.
        slow: Whether the query exceeded the slow threshold.
        sampled: Whether a full trace was captured (False for
            slow-but-unsampled records, which carry no spans).
        unix_time: Capture time, seconds since the epoch.
        trace: The local :class:`QueryTrace` when one was recorded.
        stitched: The cluster-wide :class:`StitchedTrace` (router only).
    """

    trace_id: str
    source: str
    seconds: float
    k: int
    t_start: float
    t_end: float
    slow: bool = False
    sampled: bool = False
    unix_time: float = 0.0
    trace: QueryTrace | None = None
    stitched: StitchedTrace | None = None


class TraceBuffer:
    """Bounded ring buffer of :class:`TraceRecord` (newest wins).

    Appends are O(1) under a single short lock; when full, the oldest
    record is evicted and counted in :attr:`dropped`.
    """

    def __init__(self, capacity: int) -> None:
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1; got {capacity}")
        self.capacity = capacity
        self._lock = threading.Lock()
        self._records: deque[TraceRecord] = deque(maxlen=capacity)
        self._total = 0

    def append(self, record: TraceRecord) -> None:
        """Add one record, evicting the oldest when full."""
        with self._lock:
            self._records.append(record)
            self._total += 1

    def recent(self, n: int | None = None) -> list[TraceRecord]:
        """The newest ``n`` records (all, when ``n`` is None), newest first."""
        with self._lock:
            records = list(self._records)
        records.reverse()
        return records if n is None else records[:n]

    def __len__(self) -> int:
        with self._lock:
            return len(self._records)

    @property
    def total(self) -> int:
        """Records ever appended (including since-evicted ones)."""
        return self._total

    @property
    def dropped(self) -> int:
        """Records evicted by the ring's capacity."""
        with self._lock:
            return self._total - len(self._records)

    def clear(self) -> None:
        """Drop every record (capacity and counters keep their meaning)."""
        with self._lock:
            self._records.clear()


class Telemetry:
    """Per-process telemetry: sampler + recent buffer + slow-query log.

    Attributes:
        config: The :class:`TelemetryConfig` in force.
        sampler: The head sampler gating full-trace capture.
        recent: Ring buffer of recently sampled traces.
        slow: The slow-query log.
    """

    def __init__(self, config: TelemetryConfig | None = None) -> None:
        self.config = config or TelemetryConfig()
        self.sampler = TraceSampler(
            rate=self.config.sample_rate,
            rate_limit_per_sec=self.config.rate_limit_per_sec,
            seed=self.config.seed,
        )
        self.recent = TraceBuffer(self.config.buffer_size)
        self.slow = TraceBuffer(self.config.slow_buffer_size)

    @property
    def armed(self) -> bool:
        """Whether any capture can happen at all."""
        return (
            self.config.sample_rate > 0.0
            or self.config.slow_threshold is not None
        )

    def should_sample(self) -> bool:
        """Per-query gate for full-trace capture."""
        return self.sampler.should_sample()

    def record(
        self,
        *,
        source: str,
        seconds: float,
        k: int,
        t_start: float,
        t_end: float,
        trace: QueryTrace | None = None,
        stitched: StitchedTrace | None = None,
        trace_id: str | None = None,
    ) -> TraceRecord | None:
        """Capture one finished query, if policy says so.

        Sampled queries (``trace`` or ``stitched`` given) enter the
        recent buffer; queries over the slow threshold enter the slow
        log — with their full trace when sampled, as a lightweight
        record otherwise.  Returns the record, or None when nothing was
        captured.
        """
        sampled = trace is not None or stitched is not None
        threshold = self.config.slow_threshold
        slow = threshold is not None and seconds >= threshold
        if not sampled and not slow:
            return None
        if trace_id is None:
            trace_id = (
                stitched.trace_id if stitched is not None else mint_trace_id()
            )
        record = TraceRecord(
            trace_id=trace_id,
            source=source,
            seconds=seconds,
            k=k,
            t_start=t_start,
            t_end=t_end,
            slow=slow,
            sampled=sampled,
            unix_time=time.time(),
            trace=trace,
            stitched=stitched,
        )
        if sampled:
            _SAMPLED.inc()
            self.recent.append(record)
        if slow:
            _SLOW.inc()
            self.slow.append(record)
        return record


_TELEMETRY_LOCK = threading.Lock()
_TELEMETRY = Telemetry()


def get_telemetry() -> Telemetry:
    """The process-wide telemetry instance (disarmed until configured)."""
    return _TELEMETRY


def configure_telemetry(config: TelemetryConfig | None) -> Telemetry:
    """Replace the process-wide telemetry with a fresh, reconfigured one.

    Serving entry points call this at startup; passing ``None`` restores
    the disarmed default.  Returns the new instance.  Buffers do not
    carry over — reconfiguring starts clean.
    """
    global _TELEMETRY
    with _TELEMETRY_LOCK:
        _TELEMETRY = Telemetry(config)
        return _TELEMETRY
