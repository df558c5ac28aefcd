"""`IndexService` — a concurrent, durable TkNN serving layer over MBI.

The paper's MBI targets *time-accumulating* data: inserts never stop while
queries run.  :class:`IndexService` turns the single-threaded library index
into a serving substrate with three properties:

**Concurrency (single-writer / multi-reader).**  Queries hold a shared
:class:`~repro.service.locks.RWLock`; the ingest *apply* step (append one
vector, materialise any completed blocks) holds it exclusively but is
O(dim).  The expensive part of an insert — building sealed blocks' kNN
graphs (the paper's bottom-up merge) — runs on a background executor with
**no lock held**: building only flips each block's ``backend`` reference,
and until that happens queries answer the block with an exact scan.
Queries therefore always see a consistent *prefix* of the insert stream.

**Durability (WAL + snapshots + recovery).**  Every ingest is appended to
a CRC-checked write-ahead log (see :mod:`repro.service.wal`) *before* it
is applied; snapshots via :mod:`repro.core.persistence` bound replay time;
recovery = load the newest intact snapshot, replay the WAL tail, resume.
Data directory layout::

    data_dir/
      snapshot-<N>.npz   # index state covering the first N records
      wal-<N>.log        # records N, N+1, ... (newest segment is active)

Snapshots are written to a temp file and atomically renamed, so a crash
mid-snapshot leaves the previous one intact.  Because block builds are
deterministic per block (seeded by ``(config.seed, block.index)``), a
recovered index is *bit-identical in its answers* to one that never
crashed, over the durable prefix.

**Admission control.**  A bounded queue with per-request deadlines and
micro-batching (see :mod:`repro.service.admission`) sheds load instead of
queueing unboundedly, and :meth:`IndexService.close` drains gracefully.
"""

from __future__ import annotations

import os
import re
import threading
import time
from concurrent.futures import Future, ThreadPoolExecutor
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from ..core.config import MBIConfig, SearchParams
from ..core.mbi import MultiLevelBlockIndex
from ..core.persistence import load_index, save_index
from ..core.results import QueryResult, check_query
from ..distances.metrics import Metric
from ..exceptions import (
    AdmissionError,
    DeadlineExceededError,
    DimensionMismatchError,
    PersistenceError,
    ServiceClosedError,
    ServiceError,
    VectorInputError,
)
from ..faultinject import failpoint
from ..observability.metrics import get_registry
from ..observability.telemetry import (
    TelemetryConfig,
    configure_telemetry,
    get_telemetry,
)
from ..observability.trace import QueryTrace
from .admission import AdmissionQueue, QueryRequest
from .locks import RWLock
from .wal import (
    FSYNC_POLICIES,
    WriteAheadLog,
    iter_segment_records,
    replay_wal,
)

_SNAPSHOT_RE = re.compile(r"^snapshot-(\d+)\.npz$")
_SEGMENT_RE = re.compile(r"^wal-(\d+)\.log$")

_METRICS = get_registry()
_INFLIGHT = _METRICS.gauge(
    "service_inflight", "Admitted queries not yet answered"
)
_REQUESTS = _METRICS.counter(
    "service_requests_total", "Queries admitted by the service"
)
_ANSWERED = _METRICS.counter(
    "service_answered_total", "Queries answered successfully"
)
_REJECTED = _METRICS.counter(
    "service_rejected_total", "Queries rejected (queue full or closed)"
)
_EXPIRED = _METRICS.counter(
    "service_deadline_expired_total",
    "Admitted queries dropped because their deadline passed",
)
_BATCHES = _METRICS.counter(
    "service_batches_total", "Micro-batches executed"
)
_BATCH_SIZE = _METRICS.histogram(
    "service_batch_size",
    "Requests per executed micro-batch",
    buckets=(1, 2, 4, 8, 16, 32, 64, 128),
)
_QUERY_SECONDS = _METRICS.histogram(
    "service_query_seconds", "Queue + execution latency per answered query"
)
_INGESTED = _METRICS.counter(
    "service_ingested_records_total", "Vectors durably ingested"
)
_SNAPSHOTS = _METRICS.counter(
    "service_snapshots_total", "Snapshots written by checkpoints"
)
_RECOVERIES = _METRICS.counter(
    "service_recoveries_total", "Successful open-with-recovery operations"
)
_REPLAYED = _METRICS.counter(
    "service_replayed_records_total", "WAL records replayed during recovery"
)
_PENDING_BUILDS = _METRICS.gauge(
    "service_pending_builds", "Sealed block chains awaiting background build"
)


@dataclass(frozen=True)
class ServiceConfig:
    """Tunables of :class:`IndexService`.

    Attributes:
        fsync: WAL durability policy (``"always"``/``"interval"``/
            ``"never"``; see :mod:`repro.service.wal`).
        fsync_interval: Max seconds between fsyncs under ``"interval"``.
        snapshot_every: Records between automatic checkpoints; ``0``
            disables automatic snapshots (call :meth:`~IndexService.checkpoint`).
        max_queue: Bound of the admission queue.
        max_batch: Max requests folded into one ``search_batch`` call.
        default_timeout: Default per-request deadline in seconds
            (``None`` = no deadline).
        build_workers: Background build executor width.  The default of 1
            serialises chain builds, which keeps the build-time counters
            exact; queries never wait on builds either way.
        memory_budget_mb: Resident-byte budget for block indexes.  When
            set, tiered block storage (:mod:`repro.tiering`) is enabled
            on the index with cold files under ``<data_dir>/tiers`` and a
            compaction pass (demote out-of-window blocks, merge cold
            files) runs after every checkpoint.  ``None`` (the default)
            keeps every block hot, exactly as before.  Tiering never
            changes answers — see ``docs/tiering.md``.
        compact_interval: Seconds between *timed* background compaction
            passes, on top of the on-checkpoint pass.  ``None`` (the
            default) compacts only at checkpoints, which keeps recovery
            scenarios deterministic.  Ignored without a memory budget.
        cold_codes: Enable compressed cold-tier search: demotions write a
            PQ code sidecar beside each cold file and queries answer
            wide cold windows with an ADC scan + exact memmap rerank
            instead of promoting (see ``docs/quantization.md``).  Off by
            default; ignored without a memory budget.
        telemetry: Sampled-tracing and slow-query policy
            (:class:`~repro.observability.TelemetryConfig`) to arm the
            **process-wide** telemetry with when the service opens.
            ``None`` (the default) leaves the current process telemetry
            untouched — disarmed unless something else armed it — so
            library use and tests pay nothing.  Serving entry points
            (``repro serve``, shard workers) pass one; the config
            travels to worker processes inside the pickled
            ``ServiceConfig``.  Sampling never changes answers: the
            sampler draws from its own RNG stream, and traced queries
            differ from untraced ones only in what gets recorded.
    """

    fsync: str = "always"
    fsync_interval: float = 0.05
    snapshot_every: int = 0
    max_queue: int = 1024
    max_batch: int = 32
    default_timeout: float | None = None
    build_workers: int = 1
    memory_budget_mb: float | None = None
    compact_interval: float | None = None
    cold_codes: bool = False
    telemetry: TelemetryConfig | None = None

    def __post_init__(self) -> None:
        """Validate the configured policies."""
        if self.fsync not in FSYNC_POLICIES:
            raise ValueError(
                f"fsync must be one of {FSYNC_POLICIES}, got {self.fsync!r}"
            )
        if self.max_queue < 1:
            raise ValueError(f"max_queue must be >= 1, got {self.max_queue}")
        if self.max_batch < 1:
            raise ValueError(f"max_batch must be >= 1, got {self.max_batch}")
        if self.snapshot_every < 0:
            raise ValueError(
                f"snapshot_every must be >= 0, got {self.snapshot_every}"
            )
        if self.build_workers < 1:
            raise ValueError(
                f"build_workers must be >= 1, got {self.build_workers}"
            )
        if self.memory_budget_mb is not None and self.memory_budget_mb <= 0:
            raise ValueError(
                f"memory_budget_mb must be > 0 when set, "
                f"got {self.memory_budget_mb}"
            )
        if self.compact_interval is not None and self.compact_interval <= 0:
            raise ValueError(
                f"compact_interval must be > 0 when set, "
                f"got {self.compact_interval}"
            )


@dataclass(frozen=True)
class RecoveryReport:
    """What :meth:`IndexService.open` found on disk.

    Attributes:
        snapshot_path: The snapshot loaded, or ``None`` (cold start).
        snapshot_records: Records covered by that snapshot.
        replayed_records: WAL records replayed on top of it.
        torn_tail: Whether a torn WAL tail was discarded.
        skipped_snapshots: Snapshot files that failed to load and were
            skipped in favour of an older one.
    """

    snapshot_path: Path | None = None
    snapshot_records: int = 0
    replayed_records: int = 0
    torn_tail: bool = False
    skipped_snapshots: int = 0


class IndexService:
    """Concurrent, durable TkNN serving layer over one MBI index.

    Construct with :meth:`open` (create-or-recover from a data directory).
    The service is usable as a context manager; exiting drains and closes.

    Example:
        >>> svc = IndexService.open(tmp_path, dim=8)        # doctest: +SKIP
        >>> svc.ingest(np.zeros(8), timestamp=0.0)          # doctest: +SKIP
        >>> svc.query(np.zeros(8), k=1)                     # doctest: +SKIP
    """

    def __init__(
        self,
        index: MultiLevelBlockIndex,
        data_dir: str | Path,
        config: ServiceConfig | None = None,
        *,
        applied_records: int | None = None,
        recovery: RecoveryReport | None = None,
    ) -> None:
        """Wire an index to its durability state; prefer :meth:`open`."""
        self._index = index
        self._data_dir = Path(data_dir)
        self._data_dir.mkdir(parents=True, exist_ok=True)
        self._config = config if config is not None else ServiceConfig()
        if self._config.telemetry is not None:
            configure_telemetry(self._config.telemetry)
        self._applied = (
            len(index) if applied_records is None else int(applied_records)
        )
        if self._applied != len(index):
            raise ServiceError(
                f"applied_records={self._applied} disagrees with index "
                f"length {len(index)}"
            )
        self.last_recovery = recovery

        self._rwlock = RWLock()
        self._ingest_lock = threading.RLock()
        self._rng = np.random.default_rng(index.config.seed)
        self._rng_lock = threading.Lock()
        self._closed = False

        self._wal = WriteAheadLog(
            self._segment_path(self._applied),
            index.dim,
            fsync=self._config.fsync,
            fsync_interval=self._config.fsync_interval,
        )
        # Records already in the active segment (recovery reuses segments).
        self._segment_base = self._applied - self._wal.record_count

        self._build_pool = ThreadPoolExecutor(
            self._config.build_workers, thread_name_prefix="repro-build"
        )
        self._build_futures: list[Future] = []
        self._build_futures_lock = threading.Lock()

        # Tiered block storage: a service-level memory budget enables the
        # tier on the index (cold files live beside the WAL/snapshots so
        # they survive restarts) and attaches a compactor that runs after
        # every checkpoint — plus on a timer when compact_interval is set.
        self._compactor: "Compactor | None" = None
        if self._config.cold_codes and not index.config.cold_codes:
            # The index config owns the query-path switch; a snapshot
            # written before cold codes (or without them) upgrades in
            # place — the flag only adds sidecars, it never changes the
            # store or block layout.
            index._config = replace(index._config, cold_codes=True)
        if self._config.memory_budget_mb is not None and index.tiering is None:
            index.enable_tiering(
                memory_budget_mb=self._config.memory_budget_mb,
                directory=self._data_dir / "tiers",
            )
        if index.tiering is not None:
            from ..tiering.compactor import Compactor

            self._compactor = Compactor(index.tiering)
            index.tiering.sync()
            if self._config.compact_interval is not None:
                self._compactor.start(self._config.compact_interval)

        self._queue = AdmissionQueue(self._config.max_queue)
        self._worker = threading.Thread(
            target=self._worker_loop, name="repro-serve-worker", daemon=True
        )
        self._worker.start()

    # ------------------------------------------------------------ constructors

    @classmethod
    def open(
        cls,
        data_dir: str | Path,
        *,
        dim: int | None = None,
        metric: Metric | str = "euclidean",
        mbi_config: MBIConfig | None = None,
        config: ServiceConfig | None = None,
    ) -> "IndexService":
        """Create-or-recover a service from a data directory.

        When the directory holds prior state, the newest intact snapshot is
        loaded and the WAL tail replayed on top of it (``dim``/``metric``/
        ``mbi_config`` are then taken from the snapshot and may be omitted).
        A fresh directory starts an empty index, for which ``dim`` is
        required.

        Raises:
            PersistenceError: On unrecoverable on-disk state (WAL gaps,
                mid-file corruption, or a record the index refuses, such
                as an infinite timestamp that ingest accepted before it
                checked timestamps for finiteness).
            ServiceError: If a fresh start is requested without ``dim``.
        """
        data_dir = Path(data_dir)
        data_dir.mkdir(parents=True, exist_ok=True)
        snapshots = sorted(
            (
                (int(m.group(1)), entry)
                for entry in data_dir.iterdir()
                if (m := _SNAPSHOT_RE.match(entry.name))
            ),
            reverse=True,
        )
        index: MultiLevelBlockIndex | None = None
        applied = 0
        snapshot_path: Path | None = None
        skipped = 0
        for count, path in snapshots:
            try:
                candidate = load_index(path)
            except PersistenceError:
                skipped += 1
                continue
            if len(candidate) != count:
                skipped += 1
                continue
            index, applied, snapshot_path = candidate, count, path
            break

        segments = sorted(
            (
                (int(m.group(1)), entry)
                for entry in data_dir.iterdir()
                if (m := _SEGMENT_RE.match(entry.name))
            )
        )
        if index is None:
            if segments and dim is None:
                # Infer dimensionality from the oldest segment header.
                dim = replay_wal(segments[0][1]).dim
            if dim is None:
                raise ServiceError(
                    f"{data_dir} holds no recoverable state and no dim was "
                    "given for a fresh index"
                )
            index = MultiLevelBlockIndex(int(dim), metric, mbi_config)

        replayed = 0
        torn = False
        for global_index, record in iter_segment_records(segments, applied):
            if global_index != applied:  # pragma: no cover - defensive
                raise PersistenceError(
                    f"WAL replay expected record {applied}, got {global_index}"
                )
            try:
                index.insert(record.vector, record.timestamp)
            except VectorInputError as error:
                # Only a log written before ingest refused non-finite
                # timestamps can hold such a record.  Replaying past it
                # would drop an acknowledged row, so recovery stops here.
                raise PersistenceError(
                    f"WAL record {global_index} cannot be applied ({error}); "
                    "the log and the snapshots are left as they are"
                ) from error
            applied += 1
            replayed += 1
        if segments:
            # ``iter_segment_records`` already validated contiguity; only
            # the final segment can carry a torn tail worth reporting.
            torn = not replay_wal(segments[-1][1]).clean

        report = RecoveryReport(
            snapshot_path=snapshot_path,
            snapshot_records=(
                0 if snapshot_path is None else len(index) - replayed
            ),
            replayed_records=replayed,
            torn_tail=torn,
            skipped_snapshots=skipped,
        )
        if snapshot_path is not None or replayed:
            _RECOVERIES.inc()
            _REPLAYED.inc(replayed)
        return cls(
            index,
            data_dir,
            config,
            applied_records=applied,
            recovery=report,
        )

    # ------------------------------------------------------------- inspection

    @property
    def index(self) -> MultiLevelBlockIndex:
        """The wrapped index.  Direct use is *not* thread-safe; prefer
        :meth:`search`/:meth:`query`/:meth:`ingest`."""
        return self._index

    @property
    def data_dir(self) -> Path:
        """The durable state directory."""
        return self._data_dir

    @property
    def config(self) -> ServiceConfig:
        """The service configuration."""
        return self._config

    @property
    def applied_records(self) -> int:
        """Durably ingested records applied to the in-memory index."""
        return self._applied

    @property
    def closed(self) -> bool:
        """Whether the service has been closed (or is draining)."""
        return self._closed

    @property
    def pending_queries(self) -> int:
        """Admitted queries not yet started."""
        return len(self._queue)

    def health(self) -> dict:
        """The liveness document ``GET /healthz`` serves."""
        return {
            "status": "draining" if self._closed else "ok",
            "records": self._applied,
            "blocks": self.index.num_blocks,
            "pending_queries": len(self._queue),
        }

    def _segment_path(self, start: int) -> Path:
        return self._data_dir / f"wal-{start:012d}.log"

    def _snapshot_path(self, count: int) -> Path:
        return self._data_dir / f"snapshot-{count:012d}.npz"

    # ----------------------------------------------------------------- ingest

    def ingest(self, vector: np.ndarray, timestamp: float) -> int:
        """Durably ingest one timestamped vector; returns its position.

        WAL-first: the record is appended (and fsynced per policy) before
        the in-memory apply, so an acknowledged ingest survives a crash.
        Validation happens *before* the WAL append — a rejected vector
        leaves neither the log nor the index touched.

        Raises:
            ServiceClosedError: After :meth:`close` has begun.
            DimensionMismatchError / TimestampOrderError /
            VectorInputError: On invalid input (a non-finite component or
            timestamp is a ``VectorInputError``).
        """
        vector = np.asarray(vector)
        if vector.ndim != 1:
            actual = vector.shape[-1] if vector.ndim else 0
            raise DimensionMismatchError(self._index.dim, int(actual))
        return self.ingest_batch(vector[None, :], np.array([float(timestamp)])).start

    def ingest_batch(
        self, vectors: np.ndarray, timestamps: np.ndarray
    ) -> range:
        """Durably ingest a timestamp-sorted batch; returns the positions.

        All or nothing on invalid input: every row is checked (dimension,
        finite components and timestamp, time order within the batch and
        against the newest stored row) before the first WAL append, so a
        refused batch leaves the log and the index as they were and can be
        corrected and retried without duplicating rows.

        Raises:
            ServiceClosedError / DimensionMismatchError /
            TimestampOrderError / VectorInputError: As :meth:`ingest`.
        """
        if self._closed:
            raise ServiceClosedError("service is closed; ingest rejected")
        with self._ingest_lock:
            if self._closed:
                raise ServiceClosedError("service is closed; ingest rejected")
            # Under the ingest lock the newest stored timestamp cannot move
            # between this check and the appends below.
            vectors, timestamps = self._index.store.check_batch(
                vectors, timestamps
            )
            start = self._applied
            for vector, timestamp in zip(vectors, timestamps):
                timestamp = float(timestamp)
                self._wal.append(vector, timestamp)  # durable first
                # The classic crash window: the record is durable but not
                # yet applied.  A fault here must be healed by WAL replay.
                failpoint("service.ingest_apply")
                with self._rwlock.write():
                    _, chain = self._index.insert_deferred(vector, timestamp)
                self._applied += 1
                _INGESTED.inc()
                if chain:
                    self._submit_build(chain)
                if (
                    self._config.snapshot_every
                    and self._applied % self._config.snapshot_every == 0
                ):
                    self.checkpoint()
            return range(start, self._applied)

    def _submit_build(self, chain: list) -> None:
        _PENDING_BUILDS.inc()

        def build() -> None:
            try:
                self._index.build_blocks(chain)
            finally:
                _PENDING_BUILDS.inc(-1)

        future = self._build_pool.submit(build)
        with self._build_futures_lock:
            self._build_futures = [
                f for f in self._build_futures if not f.done()
            ]
            self._build_futures.append(future)

    def wait_builds(self, timeout: float | None = None) -> None:
        """Block until every submitted background build has finished."""
        with self._build_futures_lock:
            futures = list(self._build_futures)
        deadline = None if timeout is None else time.monotonic() + timeout
        for future in futures:
            remaining = (
                None if deadline is None else max(0.0, deadline - time.monotonic())
            )
            future.result(timeout=remaining)

    # ---------------------------------------------------------------- queries

    def search(
        self,
        query: np.ndarray,
        k: int,
        t_start: float = float("-inf"),
        t_end: float = float("inf"),
        *,
        params: SearchParams | None = None,
        tau: float | None = None,
        rng: np.random.Generator | None = None,
        trace: QueryTrace | None = None,
    ) -> QueryResult:
        """Answer one TkNN query synchronously (bypasses the queue).

        Takes the read lock, so it may run concurrently with other
        searches and with background builds, and sees a consistent prefix
        of the ingest stream.

        When the process telemetry is armed and no explicit ``trace`` is
        given, the query may be head-sampled into a fresh
        :class:`QueryTrace` and/or captured by the slow-query log; both
        only observe — answers stay bit-identical either way, because
        entry-sampling randomness comes from ``rng`` alone.
        """
        if rng is None:
            rng = self._spawn_rng()
        telemetry = get_telemetry()
        sampled: QueryTrace | None = None
        if trace is None and telemetry.armed and telemetry.should_sample():
            sampled = QueryTrace()
        started = time.perf_counter()
        failpoint("service.search")
        with self._rwlock.read():
            result = self._index.search(
                query, k, t_start, t_end,
                params=params, tau=tau, rng=rng,
                trace=trace if trace is not None else sampled,
            )
        if trace is None and telemetry.armed:
            telemetry.record(
                source="service",
                seconds=time.perf_counter() - started,
                k=int(k),
                t_start=float(t_start),
                t_end=float(t_end),
                trace=sampled,
            )
        return result

    def submit(
        self,
        query: np.ndarray,
        k: int,
        t_start: float = float("-inf"),
        t_end: float = float("inf"),
        *,
        timeout: float | None = None,
        trace: QueryTrace | None = None,
    ) -> Future:
        """Admit one TkNN request; returns a future of its result.

        Raises:
            AdmissionError: When the bounded queue is full.
            ServiceClosedError: When the service is draining/closed.
            InvalidQueryError: On malformed queries (checked on admission
                so the error surfaces immediately, not via the future).
        """
        query = np.asarray(query, dtype=np.float64)
        check_query(query, k, self._index.dim)
        if timeout is None:
            timeout = self._config.default_timeout
        request = QueryRequest(
            query=query,
            k=int(k),
            t_start=float(t_start),
            t_end=float(t_end),
            deadline=(
                None if timeout is None else time.monotonic() + timeout
            ),
            trace=trace,
        )
        try:
            self._queue.put(request)
        except (ServiceClosedError, AdmissionError):
            _REJECTED.inc()
            raise
        _REQUESTS.inc()
        _INFLIGHT.inc()
        return request.future

    def query(
        self,
        query: np.ndarray,
        k: int,
        t_start: float = float("-inf"),
        t_end: float = float("inf"),
        *,
        timeout: float | None = None,
        trace: QueryTrace | None = None,
    ) -> QueryResult:
        """Admit one request and block for its answer (deadline-aware)."""
        if timeout is None:
            timeout = self._config.default_timeout
        future = self.submit(
            query, k, t_start, t_end, timeout=timeout, trace=trace
        )
        # A small grace period keeps the future (not this wait) the source
        # of truth for deadline handling.
        wait = None if timeout is None else timeout + 1.0
        return future.result(timeout=wait)

    def _spawn_rng(self) -> np.random.Generator:
        with self._rng_lock:
            seed = int(self._rng.integers(0, 2**63 - 1))
        return np.random.default_rng(seed)

    def _worker_loop(self) -> None:
        while True:
            batch = self._queue.drain(self._config.max_batch)
            if batch is None:
                return
            now = time.monotonic()
            live: list[QueryRequest] = []
            for request in batch:
                if request.expired(now):
                    _EXPIRED.inc()
                    _INFLIGHT.inc(-1)
                    request.future.set_exception(
                        _deadline_error(request, now)
                    )
                else:
                    live.append(request)
            if not live:
                continue
            _BATCHES.inc()
            _BATCH_SIZE.observe(len(live))
            try:
                results = self._execute(live)
            except Exception as error:  # surface through the futures
                for request in live:
                    _INFLIGHT.inc(-1)
                    if not request.future.set_running_or_notify_cancel():
                        continue
                    request.future.set_exception(error)
                continue
            finish = time.monotonic()
            telemetry = get_telemetry()
            for request, result in zip(live, results):
                _INFLIGHT.inc(-1)
                _ANSWERED.inc()
                seconds = finish - request.enqueued_at
                _QUERY_SECONDS.observe(seconds)
                if telemetry.armed:
                    # Queue+execution latency; the request's trace (when
                    # the frontend sampled one at admission) rides along.
                    telemetry.record(
                        source="service",
                        seconds=seconds,
                        k=request.k,
                        t_start=request.t_start,
                        t_end=request.t_end,
                        trace=request.trace,
                    )
                if request.future.set_running_or_notify_cancel():
                    request.future.set_result(result)

    def _execute(self, live: list[QueryRequest]) -> list[QueryResult]:
        head = live[0]
        with self._rwlock.read():
            if len(live) == 1:
                return [
                    self._index.search(
                        head.query,
                        head.k,
                        head.t_start,
                        head.t_end,
                        rng=self._spawn_rng(),
                        trace=head.trace,
                    )
                ]
            queries = np.stack([request.query for request in live])
            return self._index.search_batch(
                queries,
                head.k,
                head.t_start,
                head.t_end,
                rng=self._spawn_rng(),
            )

    # ------------------------------------------------------------- durability

    def checkpoint(self) -> Path:
        """Write an atomic snapshot and rotate the WAL; returns its path.

        Blocks ingest (it shares the ingest lock) but not queries, except
        for the instant the write lock is taken to fence in-flight reads.
        Pending background builds are drained first so the snapshot holds
        only fully built blocks — a reloaded snapshot then answers queries
        identically to the live index.
        """
        with self._ingest_lock:
            failpoint("service.checkpoint")
            self.wait_builds()
            self._wal.sync()
            count = self._applied
            tmp = self._data_dir / "snapshot.tmp.npz"
            with self._rwlock.read():
                save_index(self._index, tmp)
            final = self._snapshot_path(count)
            # A fault here models a crash *between* the temp write and the
            # atomic publish: the temp file exists, no snapshot appears,
            # and recovery must fall back to the previous snapshot + WAL.
            failpoint("snapshot.rename")
            os.replace(tmp, final)
            self._fsync_dir()
            # Rotate: further appends land in a fresh segment that starts
            # exactly at the snapshot point.
            self._wal.close()
            self._wal = WriteAheadLog(
                self._segment_path(count),
                self._index.dim,
                fsync=self._config.fsync,
                fsync_interval=self._config.fsync_interval,
            )
            self._segment_base = count
            self._gc(keep_snapshot=count)
            _SNAPSHOTS.inc()
            if self._compactor is not None:
                # Demotion-on-checkpoint: the snapshot just captured every
                # block, so blocks outside the hot window demote to cold
                # files and undersized cold files merge into ancestors'.
                self._compactor.run_once()
            return final

    def _gc(self, keep_snapshot: int) -> None:
        """Drop WAL segments and snapshots the new snapshot supersedes."""
        for entry in self._data_dir.iterdir():
            if (m := _SEGMENT_RE.match(entry.name)) and int(
                m.group(1)
            ) < keep_snapshot:
                # Fully covered iff every record precedes the snapshot;
                # verify cheaply via the *next* boundary: segments are
                # contiguous, so any segment starting before the snapshot
                # whose successor also starts at/before it is covered.  The
                # active segment starts at ``keep_snapshot`` so older ones
                # are always covered.
                entry.unlink(missing_ok=True)
            elif (m := _SNAPSHOT_RE.match(entry.name)) and int(
                m.group(1)
            ) < keep_snapshot:
                entry.unlink(missing_ok=True)

    def _fsync_dir(self) -> None:
        if not hasattr(os, "O_DIRECTORY"):  # pragma: no cover - non-POSIX
            return
        fd = os.open(self._data_dir, os.O_RDONLY | os.O_DIRECTORY)
        try:
            os.fsync(fd)
        finally:
            os.close(fd)

    # --------------------------------------------------------------- shutdown

    def close(
        self, *, checkpoint: bool = False, drain_timeout: float = 30.0
    ) -> None:
        """Gracefully drain and shut the service down (idempotent).

        Stops admitting, lets the worker answer every already-admitted
        request, waits for background builds, fsyncs the WAL, and — when
        ``checkpoint=True`` — writes a final snapshot so the next open
        replays nothing.
        """
        if self._closed:
            return
        self._closed = True
        if self._compactor is not None:
            self._compactor.stop()
        self._queue.close()
        self._worker.join(timeout=drain_timeout)
        with self._ingest_lock:
            self.wait_builds(timeout=drain_timeout)
            if checkpoint:
                # checkpoint() only needs the ingest lock, which we hold
                # (it is an RLock); it leaves a fresh, empty WAL segment.
                self.checkpoint()
            self._wal.close()
        self._build_pool.shutdown(wait=True)

    def abort(self) -> None:
        """Abandon the service as a crash would — no drain, no fsync.

        The in-process analogue of ``kill -9``, used by the chaos harness
        (:mod:`repro.chaos`): admitted-but-unanswered queries fail with
        :class:`~repro.exceptions.ServiceClosedError`, queued background
        builds are cancelled and a running one is waited for (a dead
        process writes nothing after it dies, so a build left running
        must not demote blocks into the directory that recovery then
        reads), and the WAL handle is
        abandoned without a final fsync (see
        :meth:`~repro.service.wal.WriteAheadLog.abandon`) so torn bytes
        from an injected fault stay on disk exactly as a dead process
        would have left them.  No snapshot is written.  The only
        difference from a real ``SIGKILL`` is that user-space file buffers
        are flushed to the OS — page-cache-loss scenarios still need the
        subprocess ``crash`` failpoint action.
        """
        if self._closed:
            return
        self._closed = True
        if self._compactor is not None:
            self._compactor.stop(timeout=1.0)
        self._queue.close()
        for request in self._queue.reject_all():
            if request.future.set_running_or_notify_cancel():
                request.future.set_exception(
                    ServiceClosedError("service aborted (simulated crash)")
                )
        self._worker.join(timeout=10.0)
        self._build_pool.shutdown(wait=True, cancel_futures=True)
        self._wal.abandon()

    def __enter__(self) -> "IndexService":
        """Enter a ``with`` block; :meth:`close` runs on exit."""
        return self

    def __exit__(self, *exc_info: object) -> None:
        """Close the service (checkpoint + drain) on block exit."""
        self.close()

    def __repr__(self) -> str:
        """Compact state summary for logs and debugging."""
        return (
            f"IndexService(dir={self._data_dir}, records={self._applied}, "
            f"dim={self._index.dim}, closed={self._closed})"
        )


def _deadline_error(request: QueryRequest, now: float) -> DeadlineExceededError:
    waited = now - request.enqueued_at
    return DeadlineExceededError(
        f"request expired after waiting {waited * 1e3:.1f} ms in the queue"
    )
