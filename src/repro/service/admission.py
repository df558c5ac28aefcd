"""Admission control: a bounded, deadline-aware TkNN request queue.

The serving layer refuses work it cannot finish in time instead of
queueing unboundedly (classic overload behaviour: bounded queue + early
rejection keeps tail latency flat while the index keeps ingesting).
Admitted requests are drained in arrival order and *micro-batched*:
consecutive requests sharing the same ``(k, t_start, t_end)`` are answered
by one :meth:`~repro.core.mbi.MultiLevelBlockIndex.search_batch` call,
whose queries all reuse the window's memoised block selection.
"""

from __future__ import annotations

import threading
import time
from collections import deque
from concurrent.futures import Future
from dataclasses import dataclass, field

import numpy as np

from ..exceptions import AdmissionError, ServiceClosedError
from ..faultinject import failpoint
from ..observability.trace import QueryTrace


@dataclass
class QueryRequest:
    """One admitted TkNN request awaiting execution.

    Attributes:
        query: The query vector (already validated/converted).
        k: Neighbors requested.
        t_start: Inclusive window start.
        t_end: Exclusive window end.
        future: Resolves to the :class:`~repro.core.results.QueryResult`.
        deadline: Absolute ``time.monotonic()`` deadline, or ``None``.
        trace: Optional per-request EXPLAIN trace; traced requests are
            executed individually (never batched) so the trace describes
            exactly one query.
        enqueued_at: ``time.monotonic()`` at admission.
    """

    query: np.ndarray
    k: int
    t_start: float
    t_end: float
    future: Future = field(default_factory=Future)
    deadline: float | None = None
    trace: QueryTrace | None = None
    enqueued_at: float = field(default_factory=time.monotonic)

    def batch_key(self) -> tuple[int, float, float] | None:
        """Requests with equal keys may share one batched search.

        ``None`` marks the request unbatchable (it carries a trace).
        """
        if self.trace is not None:
            return None
        return (self.k, self.t_start, self.t_end)

    def expired(self, now: float | None = None) -> bool:
        """Whether the deadline has passed."""
        if self.deadline is None:
            return False
        return (time.monotonic() if now is None else now) > self.deadline


class AdmissionQueue:
    """Bounded FIFO of :class:`QueryRequest` with batch-aware draining.

    Args:
        maxsize: Maximum queued (admitted but unstarted) requests.
    """

    def __init__(self, maxsize: int) -> None:
        """Create a bounded queue admitting at most ``maxsize`` requests."""
        if maxsize < 1:
            raise ValueError(f"maxsize must be >= 1, got {maxsize}")
        self._maxsize = int(maxsize)
        self._cond = threading.Condition()
        self._items: deque[QueryRequest] = deque()
        self._closed = False

    def __len__(self) -> int:
        """Number of requests currently queued."""
        return len(self._items)

    @property
    def maxsize(self) -> int:
        """The queue bound."""
        return self._maxsize

    @property
    def closed(self) -> bool:
        """Whether the queue has stopped admitting."""
        return self._closed

    def put(self, request: QueryRequest) -> None:
        """Admit one request.

        Raises:
            ServiceClosedError: After :meth:`close`.
            AdmissionError: When the queue is full (load shedding).
        """
        failpoint("admission.put")
        with self._cond:
            if self._closed:
                raise ServiceClosedError(
                    "service is draining; no new queries are admitted"
                )
            if len(self._items) >= self._maxsize:
                raise AdmissionError(
                    f"request queue full ({self._maxsize} pending); "
                    "retry with backoff"
                )
            self._items.append(request)
            self._cond.notify()

    def drain(self, max_batch: int) -> list[QueryRequest] | None:
        """Block for the next micro-batch; ``None`` = closed *and* empty.

        Pops the head request plus up to ``max_batch - 1`` consecutive
        followers sharing its :meth:`~QueryRequest.batch_key`.  A traced
        (unbatchable) head is returned alone.
        """
        failpoint("admission.drain")
        with self._cond:
            while not self._items:
                if self._closed:
                    return None
                self._cond.wait()
            head = self._items.popleft()
            batch = [head]
            key = head.batch_key()
            if key is None:
                return batch
            while (
                len(batch) < max_batch
                and self._items
                and self._items[0].batch_key() == key
            ):
                batch.append(self._items.popleft())
            return batch

    def close(self) -> None:
        """Stop admitting; queued requests remain drainable (graceful)."""
        with self._cond:
            self._closed = True
            self._cond.notify_all()

    def reject_all(self) -> list[QueryRequest]:
        """Remove and return every queued request (hard shutdown path)."""
        with self._cond:
            items = list(self._items)
            self._items.clear()
            self._cond.notify_all()
            return items
